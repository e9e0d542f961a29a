package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/hpcclab/taskdrop/internal/service"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// The load generator. One process, one keep-alive connection, requests
// strictly one after another: closed loop (next request when the previous
// answer arrives) or open loop (each request has a due time; latency counts
// from it). Request bodies are encoded before, and responses decoded after,
// the timed section, so the generator's own JSON work is in neither the
// latencies nor the throughput.

// spinWindow is how close to a due time the open-loop pacer sleeps; the
// rest it spins. Sleep-only pacing measures this VM's timer slack (p50
// 856-1190 us against 270 us closed loop), not the program.
const spinWindow = 3 * time.Millisecond

// clock is the pacer's time source, faked in tests.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// pace blocks until due and returns how late it let go (>= 0).
func pace(clk clock, due time.Time) time.Duration {
	if d := due.Sub(clk.Now()) - spinWindow; d > 0 {
		clk.Sleep(d)
	}
	for {
		if lag := clk.Now().Sub(due); lag >= 0 {
			return lag
		}
	}
}

// loadResult is one timed send phase.
type loadResult struct {
	latUS  []float64 // per request: answer time minus due (open) or send (closed) time
	lagUS  []float64 // per request, open loop only: send time minus due time
	wall   time.Duration
	bodies [][]byte // raw 2xx response bodies, in request order
	failed int
	err    error // first failure
}

// maxConsecutiveFailures ends a send phase early: past it the server is
// gone and the remaining requests would only wait out their timeouts.
const maxConsecutiveFailures = 10

// runLoad sends reqs in order through post. due, when non-nil, holds each
// request's offset from the phase start (open loop); nil means closed loop.
func runLoad(clk clock, post func([]byte) ([]byte, error), reqs [][]byte, due []time.Duration) loadResult {
	res := loadResult{
		latUS:  make([]float64, 0, len(reqs)),
		bodies: make([][]byte, 0, len(reqs)),
	}
	if due != nil {
		res.lagUS = make([]float64, 0, len(reqs))
	}
	start := clk.Now()
	streak := 0
	for i, body := range reqs {
		from := clk.Now()
		if due != nil {
			from = start.Add(due[i])
			lag := pace(clk, from)
			res.lagUS = append(res.lagUS, float64(lag)/float64(time.Microsecond))
		}
		out, err := post(body)
		if err != nil {
			res.failed++
			if res.err == nil {
				res.err = fmt.Errorf("request %d: %w", i, err)
			}
			if streak++; streak >= maxConsecutiveFailures {
				res.failed += len(reqs) - i - 1
				break
			}
			continue
		}
		streak = 0
		res.latUS = append(res.latUS, float64(clk.Now().Sub(from))/float64(time.Microsecond))
		res.bodies = append(res.bodies, out)
	}
	res.wall = clk.Now().Sub(start)
	return res
}

// newPoster returns a post function bound to one keep-alive connection to
// base's /v1/decide.
func newPoster(base string) (post func([]byte) ([]byte, error), closeConn func()) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	cl := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	url := base + "/v1/decide"
	post = func(body []byte) ([]byte, error) {
		resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode/100 != 2 {
			return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(out))
		}
		return out, nil
	}
	return post, tr.CloseIdleConnections
}

// encodeRequests turns a trace into decide request bodies of batch tasks
// each, labelled t<ID> the way hcload labels them.
func encodeRequests(tr *workload.Trace, batch int) ([][]byte, error) {
	var out [][]byte
	for lo := 0; lo < len(tr.Tasks); lo += batch {
		hi := min(lo+batch, len(tr.Tasks))
		req := service.DecideRequest{Tasks: make([]service.TaskSpec, hi-lo)}
		for i, t := range tr.Tasks[lo:hi] {
			req.Tasks[i] = service.TaskSpec{
				ID:         fmt.Sprintf("t%d", t.ID),
				Type:       int(t.Type),
				Arrival:    t.Arrival,
				Deadline:   t.Deadline,
				ExecByType: t.ExecByType,
			}
		}
		b, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// checkAcks decodes the responses to the trace's n tasks and returns one
// error per broken promise: every task acknowledged exactly once, in order,
// with a known action.
func checkAcks(bodies [][]byte, n int) []error {
	var errs []error
	next := 0
	for i, b := range bodies {
		var resp service.DecideResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			errs = append(errs, fmt.Errorf("response %d: %w", i, err))
			continue
		}
		for _, d := range resp.Decisions {
			if want := fmt.Sprintf("t%d", next); d.ID != want {
				errs = append(errs, fmt.Errorf("response %d acknowledges %q, want %q (duplicate or lost ack)", i, d.ID, want))
				return errs // every later ID would be off by the same slip
			}
			switch d.Action {
			case service.ActionMap, service.ActionDefer, service.ActionDrop:
			default:
				errs = append(errs, fmt.Errorf("task %s: unknown action %q", d.ID, d.Action))
			}
			next++
		}
	}
	if next != n {
		errs = append(errs, fmt.Errorf("%d tasks acknowledged, want %d", next, n))
	}
	return errs
}
