package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
)

// testMatrix builds a PET matrix from explicit cell PMFs, one machine type
// per column, so tests control every number exactly.
func testMatrix(t testing.TB, cells [][]pmf.PMF) *pet.Matrix {
	t.Helper()
	nt, nm := len(cells), len(cells[0])
	p := pet.Profile{
		Name:             "test",
		TaskTypeNames:    make([]string, nt),
		MachineTypeNames: make([]string, nm),
		MeanMS:           make([][]float64, nt),
		MachinesPerType:  make([]int, nm),
		PriceHour:        make([]float64, nm),
		GammaScaleRange:  [2]float64{1, 2},
	}
	for i := range p.TaskTypeNames {
		p.TaskTypeNames[i] = fmt.Sprintf("t%d", i)
		p.MeanMS[i] = make([]float64, nm)
		for j := range p.MeanMS[i] {
			p.MeanMS[i][j] = cells[i][j].Mean()
		}
	}
	for j := range p.MachineTypeNames {
		p.MachineTypeNames[j] = fmt.Sprintf("m%d", j)
		p.MachinesPerType[j] = 1
		p.PriceHour[j] = 0.1
	}
	return pet.FromPMFs(p, cells)
}

// delta returns a deterministic exec PMF.
func delta(t pmf.Tick) pmf.PMF { return pmf.Delta(t) }

// twoPoint returns a {t1: p, t2: 1−p} PMF.
func twoPoint(t1 pmf.Tick, p float64, t2 pmf.Tick) pmf.PMF {
	return pmf.FromImpulses([]pmf.Impulse{{T: t1, P: p}, {T: t2, P: 1 - p}})
}

func TestAvailabilityIdle(t *testing.T) {
	m := testMatrix(t, [][]pmf.PMF{{delta(10)}})
	c := NewCalculus(m)
	s, first := c.ChainStart(0, 100, nil)
	if avail := s.PMF(); first != 0 || !avail.Equal(pmf.Delta(100)) {
		t.Fatalf("idle availability = %v (first %d)", avail, first)
	}
}

func TestAvailabilityRunning(t *testing.T) {
	m := testMatrix(t, [][]pmf.PMF{{twoPoint(10, 0.5, 20)}})
	c := NewCalculus(m)
	q := []QueueTask{{Type: 0, Deadline: 1000, Running: true, Elapsed: 12}}
	s, first := c.ChainStart(0, 100, q)
	avail := s.PMF()
	if first != 1 {
		t.Fatalf("first pending = %d, want 1", first)
	}
	// Elapsed 12 rules out the 10 branch: remaining = 20−12 = 8 with mass
	// 1, so availability = Delta(108).
	if !avail.Equal(pmf.Delta(108)) {
		t.Fatalf("availability = %v, want Delta(108)", avail)
	}
}

func TestCompletionPMFsDeterministicChain(t *testing.T) {
	m := testMatrix(t, [][]pmf.PMF{{delta(10)}, {delta(30)}})
	c := NewCalculus(m)
	q := []QueueTask{
		{Type: 0, Deadline: 1000},
		{Type: 1, Deadline: 1000},
		{Type: 0, Deadline: 1000},
	}
	cs := c.CompletionPMFs(0, 0, q)
	wants := []pmf.Tick{10, 40, 50}
	for i, w := range wants {
		if !cs[i].Equal(pmf.Delta(w)) {
			t.Fatalf("completion %d = %v, want Delta(%d)", i, cs[i], w)
		}
	}
}

func TestCompletionPMFsReactiveCarry(t *testing.T) {
	// Second task's deadline precedes the first task's completion: per
	// Eq. 1 it is dropped, and its completion PMF carries the
	// predecessor's.
	m := testMatrix(t, [][]pmf.PMF{{delta(100)}, {delta(10)}})
	c := NewCalculus(m)
	q := []QueueTask{
		{Type: 0, Deadline: 1000},
		{Type: 1, Deadline: 50},
	}
	cs := c.CompletionPMFs(0, 0, q)
	if !cs[1].Equal(pmf.Delta(100)) {
		t.Fatalf("dropped task completion = %v, want carried Delta(100)", cs[1])
	}
	ps := c.SuccessProbs(0, 0, q)
	if ps[0] != 1 || ps[1] != 0 {
		t.Fatalf("success probs = %v, want [1 0]", ps)
	}
}

func TestSuccessProbsPartial(t *testing.T) {
	// 50/50 exec of 10 or 60 against deadline 50 → CoS 0.5.
	m := testMatrix(t, [][]pmf.PMF{{twoPoint(10, 0.5, 60)}})
	c := NewCalculus(m)
	q := []QueueTask{{Type: 0, Deadline: 50}}
	ps := c.SuccessProbs(0, 0, q)
	if math.Abs(ps[0]-0.5) > 1e-12 {
		t.Fatalf("CoS = %v, want 0.5", ps[0])
	}
}

func TestAppendMatchesManualEq1(t *testing.T) {
	exec := twoPoint(1, 0.6, 2)
	m := testMatrix(t, [][]pmf.PMF{{exec}})
	c := NewCalculus(m)
	prev := pmf.FromImpulses([]pmf.Impulse{{T: 10, P: 0.6}, {T: 11, P: 0.3}, {T: 12, P: 0.05}, {T: 13, P: 0.05}})
	got := c.Append(prev, 0, 13, 0)
	want := prev.NextCompletion(exec, 13)
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("Append = %v, want %v", got, want)
	}
}

// randomQueueCase builds a random PET (nt task types on one machine type)
// and a random queue against it for property tests.
func randomQueueCase(r *rand.Rand) (*pet.Matrix, []QueueTask, pmf.Tick) {
	nt := 2 + r.Intn(3)
	cells := make([][]pmf.PMF, nt)
	for i := range cells {
		n := 1 + r.Intn(4)
		imps := make([]pmf.Impulse, n)
		total := 0.0
		for k := range imps {
			imps[k] = pmf.Impulse{T: 1 + pmf.Tick(r.Intn(80)), P: r.Float64() + 0.05}
			total += imps[k].P
		}
		for k := range imps {
			imps[k].P /= total
		}
		cells[i] = []pmf.PMF{pmf.FromImpulses(imps)}
	}
	now := pmf.Tick(r.Intn(50))
	qlen := 1 + r.Intn(5)
	q := make([]QueueTask, qlen)
	for i := range q {
		q[i] = QueueTask{
			Type:     pet.TaskType(r.Intn(nt)),
			Deadline: now + 1 + pmf.Tick(r.Intn(300)),
		}
	}
	if r.Intn(2) == 0 {
		q[0].Running = true
		q[0].Elapsed = pmf.Tick(r.Intn(40))
	}
	dummy := &pet.Matrix{}
	_ = dummy
	return testMatrixFromCells(cells), q, now
}

// testMatrixFromCells is randomQueueCase's non-testing.TB variant of
// testMatrix.
func testMatrixFromCells(cells [][]pmf.PMF) *pet.Matrix {
	nt, nm := len(cells), len(cells[0])
	p := pet.Profile{
		Name:             "prop",
		TaskTypeNames:    make([]string, nt),
		MachineTypeNames: make([]string, nm),
		MeanMS:           make([][]float64, nt),
		MachinesPerType:  make([]int, nm),
		PriceHour:        make([]float64, nm),
		GammaScaleRange:  [2]float64{1, 2},
	}
	for i := range p.TaskTypeNames {
		p.TaskTypeNames[i] = fmt.Sprintf("t%d", i)
		p.MeanMS[i] = make([]float64, nm)
		for j := range p.MeanMS[i] {
			p.MeanMS[i][j] = cells[i][j].Mean()
		}
	}
	for j := range p.MachineTypeNames {
		p.MachineTypeNames[j] = fmt.Sprintf("m%d", j)
		p.MachinesPerType[j] = 1
		p.PriceHour[j] = 0.1
	}
	return pet.FromPMFs(p, cells)
}

// runningAvailability is the availability of a machine whose head has
// run elapsed ticks as of now: the fused kernel, in a workspace of its own,
// which pmf's tests hold bit for bit to the portable conditional form.
func runningAvailability(exec pmf.PMF, elapsed, now pmf.Tick) pmf.PMF {
	var ws pmf.Workspace
	return ws.ConditionalRemainingShift(exec, elapsed, now)
}

// refCompletions is an independent reference implementation of the queue
// completion chain (Eq. 1) using only the portable pmf operations.
func refCompletions(m *pet.Matrix, mt pet.MachineType, now pmf.Tick, q []QueueTask, budget int) []pmf.PMF {
	out := make([]pmf.PMF, len(q))
	var prev pmf.PMF
	start := 0
	if len(q) > 0 && q[0].Running {
		prev = runningAvailability(m.ExecPMF(q[0].Type, mt), q[0].Elapsed, now)
		out[0] = prev
		start = 1
	} else {
		prev = pmf.Delta(now)
	}
	for i := start; i < len(q); i++ {
		prev = prev.NextCompletion(m.ExecPMF(q[i].Type, mt), q[i].Deadline).Compact(budget)
		out[i] = prev
	}
	return out
}

func TestCompletionPMFsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 300; i++ {
		m, q, now := randomQueueCase(r)
		c := NewCalculus(m)
		got := c.CompletionPMFs(0, now, q)
		want := refCompletions(m, 0, now, q, c.MaxImpulses)
		for k := range q {
			if !got[k].ApproxEqual(want[k], 1e-9) {
				t.Fatalf("case %d task %d:\n got %v\nwant %v", i, k, got[k], want[k])
			}
		}
	}
}

func TestCompletionMassConservedAlongQueue(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		m, q, now := randomQueueCase(r)
		c := NewCalculus(m)
		cs := c.CompletionPMFs(0, now, q)
		for k, cp := range cs {
			if math.Abs(cp.TotalMass()-1) > 1e-6 {
				t.Fatalf("case %d task %d mass = %v", i, k, cp.TotalMass())
			}
		}
	}
}

// TestChainKeyIsTypeAndSplit pins the canonical trie key: deadlines that
// split a state's PMF at the same impulse are one transition — one
// convolution, one node — and that node's PMF is bitwise what a cold
// Calculus.Append returns for each of the deadlines. A deadline on the
// other side of an impulse is a different transition. Checked on the
// per-event trie and through a persistent cache.
func TestChainKeyIsTypeAndSplit(t *testing.T) {
	m := pet.Build(pet.SPECProfile(pet.DefaultProfileSeed), pet.DefaultProfileSeed, pet.DefaultBuildOptions())
	const mt, now = pet.MachineType(2), pmf.Tick(100)
	queue := []QueueTask{{Type: 0, Deadline: 400, Running: true, Elapsed: 30}, {Type: 3, Deadline: 350}, {Type: 7, Deadline: 420}}
	for _, cached := range []bool{false, true} {
		c := NewCalculus(m)
		var cc *ChainCache
		if cached {
			cc = c.NewChainCache()
		}
		s, start := c.ChainStartCached(cc, mt, now, queue)
		for _, qt := range queue[start:] {
			s = s.AppendTask(qt)
		}
		imps := s.PMF().Impulses()
		if len(imps) < 8 {
			t.Fatalf("cached=%v: tail PMF has %d impulses, too few to split", cached, len(imps))
		}
		// Two deadlines strictly between the same pair of impulses (the
		// widest gap), and one past the upper impulse.
		gap := 1
		for i := 2; i < len(imps); i++ {
			if imps[i].T-imps[i-1].T > imps[gap].T-imps[gap-1].T {
				gap = i
			}
		}
		dlA, dlB, dlC := imps[gap-1].T+1, imps[gap].T, imps[gap].T+1
		if dlA == dlB {
			t.Fatalf("cached=%v: no gap of two ticks in %v", cached, s.PMF())
		}
		const typ = pet.TaskType(5)
		before := c.Stats()
		a, b := s.Append(typ, dlA), s.Append(typ, dlB)
		if a != b {
			t.Fatalf("cached=%v: deadlines %d and %d (split %d) resolved to different nodes", cached, dlA, dlB, gap)
		}
		if st := c.Stats(); st.ChainMisses != before.ChainMisses+1 || st.ChainHits != before.ChainHits+1 {
			t.Fatalf("cached=%v: equal-split appends cost %d misses and %d hits, want 1 and 1",
				cached, st.ChainMisses-before.ChainMisses, st.ChainHits-before.ChainHits)
		}
		if other := s.Append(typ, dlC); other == a {
			t.Fatalf("cached=%v: deadline %d (split %d) shared the node of split %d", cached, dlC, gap+1, gap)
		}
		cold := NewCalculus(m)
		for _, dl := range []pmf.Tick{dlA, dlB} {
			if want := cold.Append(s.PMF(), typ, dl, mt); !a.PMF().Equal(want) {
				t.Fatalf("cached=%v: shared node differs from a cold append at deadline %d:\n got %v\nwant %v", cached, dl, a.PMF(), want)
			}
		}
	}
}

// TestMeanLowerBoundMemoMatchesBound holds ChainState.MeanLowerBound, whose
// split moments come from its cache's memo, to pmf.SplitMeanLowerBound
// over a freshly taken split bit for bit: random queues on the SPEC
// matrix, every task type at deadlines on every split index of the asked
// state's PMF, and cache resets of every kind between rounds (root drift,
// churn, pin overflow, Recycle of the calculus-owned cache), after which
// the trie hands the same node indexes to other PMFs. Each round asks its
// tail first and last, as a mapping event's scans do, so a memo that
// outlived a reset is asked again on the node index it holds; the test
// requires that to happen.
func TestMeanLowerBoundMemoMatchesBound(t *testing.T) {
	m := pet.Build(pet.SPECProfile(pet.DefaultProfileSeed), pet.DefaultProfileSeed, pet.DefaultBuildOptions())
	nt := m.NumTaskTypes()
	r := rand.New(rand.NewSource(44))
	c := NewCalculus(m)
	persistent := c.NewChainCache()
	persistent.maxPinned = 400 // a few rounds' nodes: overflow resets too
	type asked struct {
		cc   *ChainCache
		node int32
		gen  uint64
		p    pmf.PMF
	}
	var last asked
	reused := 0
	check := func(s ChainState) {
		p := s.PMF()
		if last.cc == s.cc && last.node == s.node && last.gen != s.cc.Gen() && !last.p.Equal(p) {
			reused++
		}
		imps := p.Impulses()
		for k := 0; k <= len(imps); k++ {
			// Deadlines that split p at k: impulse k's own tick and one
			// past impulse k-1, or well before and past the support.
			var dls []pmf.Tick
			switch {
			case len(imps) == 0:
				dls = []pmf.Tick{100}
			case k == 0:
				dls = []pmf.Tick{imps[0].T - 50, imps[0].T}
			case k == len(imps):
				dls = []pmf.Tick{imps[k-1].T + 1, imps[k-1].T + 1000}
			default:
				dls = []pmf.Tick{imps[k-1].T + 1, imps[k].T}
			}
			for _, dl := range dls {
				if got := p.Rank(dl - 1); len(imps) > 0 && got != k {
					t.Fatalf("deadline %d splits at %d, want %d", dl, got, k)
				}
				for ty := 0; ty < nt; ty++ {
					exec := m.ExecPMF(pet.TaskType(ty), s.mt)
					want := pmf.SplitMeanLowerBound(p, exec, exec.Moments(), p.SplitMoments(p.Rank(dl-1)))
					if got := s.MeanLowerBound(pet.TaskType(ty), dl); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("node %d split %d type %d deadline %d: memoized bound %v, want %v (PMF %v)",
							s.node, k, ty, dl, got, want, p)
					}
				}
			}
		}
		last = asked{s.cc, s.node, s.cc.Gen(), p}
	}
	// The root (machine type, clock, running head) drifts in one round of
	// three, so the persistent trie also grows across rounds until its pin
	// budget overflows.
	var (
		mt   pet.MachineType
		now  pmf.Tick
		head QueueTask
	)
	for round := 0; round < 300; round++ {
		c.Recycle()
		cc := persistent
		if round%4 == 3 {
			cc = c.own
		}
		if r.Intn(6) == 0 {
			persistent.Invalidate(InvalidateChurn)
		}
		if round == 0 || r.Intn(3) == 0 {
			mt = pet.MachineType(r.Intn(m.NumMachineTypes()))
			now = pmf.Tick(100 + 50*r.Intn(3))
			head = QueueTask{Type: pet.TaskType(r.Intn(nt)), Deadline: now + 500}
			if r.Intn(2) == 0 {
				head.Running, head.Elapsed = true, pmf.Tick(r.Intn(200))
			}
		}
		q := make([]QueueTask, 1+r.Intn(5))
		q[0] = head
		for i := 1; i < len(q); i++ {
			q[i] = QueueTask{Type: pet.TaskType(r.Intn(nt)), Deadline: now + pmf.Tick(100+r.Intn(2000))}
		}
		s, start := c.ChainStartCached(cc, mt, now, q)
		states := []ChainState{s}
		for _, qt := range q[start:] {
			s = s.AppendTask(qt)
			states = append(states, s)
		}
		check(s)
		// Candidates branch off the tail, as a mapper's do.
		for i := 0; i < 3; i++ {
			check(s.Append(pet.TaskType(r.Intn(nt)), now+pmf.Tick(100+r.Intn(2000))))
		}
		for _, st := range states {
			check(st)
		}
	}
	st := c.Stats()
	if st.InvalidationsEvent == 0 || st.InvalidationsChurn == 0 || st.InvalidationsOverflow == 0 {
		t.Fatalf("resets by reason: event %d churn %d overflow %d; every reason must occur",
			st.InvalidationsEvent, st.InvalidationsChurn, st.InvalidationsOverflow)
	}
	if reused == 0 {
		t.Fatal("no node index was asked again under a new generation with another PMF")
	}
	t.Logf("%d asks of a reused node index, resets: event %d churn %d overflow %d",
		reused, st.InvalidationsEvent, st.InvalidationsChurn, st.InvalidationsOverflow)
}
