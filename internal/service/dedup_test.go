package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"
)

func TestDedupOwnerThenDuplicate(t *testing.T) {
	w := NewDedupWindow(8)
	e, owner := w.Begin("a")
	if !owner {
		t.Fatal("first Begin is not the owner")
	}
	w.Commit("a", []byte("{\"x\":1}\n"), 3)
	dup, owner := w.Begin("a")
	if owner {
		t.Fatal("second Begin claims ownership")
	}
	data, n, err := dup.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{\"x\":1}\n" || n != 3 {
		t.Fatalf("Await = (%q, %d), want the committed bytes for 3 tasks", data, n)
	}
	if w.Hits() != 1 {
		t.Fatalf("Hits = %d, want 1", w.Hits())
	}
	_ = e
}

func TestDedupAwaitBlocksUntilCommit(t *testing.T) {
	w := NewDedupWindow(8)
	w.Begin("a")
	dup, _ := w.Begin("a")
	done := make(chan error, 1)
	go func() {
		_, _, err := dup.Await(context.Background())
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("Await returned before Commit")
	case <-time.After(20 * time.Millisecond):
	}
	w.Commit("a", []byte("ok\n"), 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDedupAwaitHonorsContext(t *testing.T) {
	w := NewDedupWindow(8)
	w.Begin("a")
	dup, _ := w.Begin("a")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := dup.Await(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Await under a dead owner = %v, want deadline exceeded", err)
	}
}

func TestDedupFailReleasesID(t *testing.T) {
	w := NewDedupWindow(8)
	w.Begin("a")
	dup, _ := w.Begin("a")
	boom := errors.New("boom")
	w.Fail("a", boom)
	if _, _, err := dup.Await(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("duplicate of a failed owner = %v, want the owner's error", err)
	}
	// The ID is released: a retry becomes a fresh owner and can commit.
	if _, owner := w.Begin("a"); !owner {
		t.Fatal("Begin after Fail is not the owner — the ID leaked")
	}
	w.Commit("a", []byte("ok\n"), 1)
}

func TestDedupPoisonIsPermanent(t *testing.T) {
	w := NewDedupWindow(8)
	w.Poison("torn", errors.New("batch torn by crash"))
	dup, owner := w.Begin("torn")
	if owner {
		t.Fatal("Begin on a poisoned ID claims ownership")
	}
	if _, _, err := dup.Await(context.Background()); err == nil {
		t.Fatal("poisoned ID answered without error")
	}
}

func TestDedupSeedSkipsExistingAndServes(t *testing.T) {
	w := NewDedupWindow(8)
	w.Commit("a", []byte("original\n"), 2)
	w.Commit("a", []byte("imposter\n"), 2)
	dup, owner := w.Begin("a")
	if owner {
		t.Fatal("Begin on a seeded ID claims ownership")
	}
	data, n, err := dup.Await(context.Background())
	if err != nil || string(data) != "original\n" || n != 2 {
		t.Fatalf("seeded Await = (%q, %d, %v), want the first seed", data, n, err)
	}
}

func TestDedupFIFOEviction(t *testing.T) {
	w := NewDedupWindow(3)
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("id-%d", i)
		w.Begin(id)
		w.Commit(id, []byte("x\n"), 1)
	}
	if got := w.Len(); got != 3 {
		t.Fatalf("Len = %d after 5 commits into a window of 3", got)
	}
	// The two oldest are gone: retrying them re-executes.
	for _, id := range []string{"id-0", "id-1"} {
		if _, owner := w.Begin(id); !owner {
			t.Fatalf("evicted %s still present", id)
		}
		w.Fail(id, errors.New("cleanup"))
	}
	// The newest survive.
	if _, owner := w.Begin("id-4"); owner {
		t.Fatal("id-4 evicted out of FIFO order")
	}
}

// TestDedupFreshIDAllocsSteadyState: once the window is full, a fresh
// ID's Begin and Commit allocate at most the entry, the key and the stored
// bytes — no channel for a duplicate that never comes, and no eviction
// queue moved as IDs leave it.
func TestDedupFreshIDAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	const capacity = 64
	w := NewDedupWindow(capacity)
	data := []byte("{}\n")
	i := 0
	fresh := func() {
		id := strconv.Itoa(1_000_000 + i) // the key
		i++
		w.Begin(id) // the entry
		w.Commit(id, bytes.Clone(data), 1)
	}
	for range 4 * capacity { // fill the ring and go round it
		fresh()
	}
	if avg := testing.AllocsPerRun(4000, fresh); avg > 3 {
		t.Fatalf("a fresh ID's Begin and Commit allocate %.2f/op, want at most 3 (entry, key, stored bytes)", avg)
	}
	if got := w.Len(); got != capacity {
		t.Fatalf("Len = %d, want the capacity %d", got, capacity)
	}
}
