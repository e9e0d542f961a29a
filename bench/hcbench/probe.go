package main

import (
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"time"
)

// The host speed index. This VM's speed moves in regimes that last many
// minutes — longer than a run, so no estimator inside a run removes them:
// across one such shift every timing of every workload moved 22-34 % on
// identical code (README.md, "Host normalisation"). Two fixed probes that
// belong to the harness, not to the program, track the shift: a loopback
// HTTP round trip between two goroutines (system calls, wake-ups across
// vCPUs — what an admission request mostly costs) and a fixed arithmetic
// loop (what the calculus mostly costs). Each round samples both before
// and after; a run's index is the median over its rounds of
//
//	sqrt((echo / refEchoUS) * (spin / refSpinNS))
//
// and the run's end-to-end timings are divided by it (rates multiplied).
// On the quiet reference host the index is 1 and nothing changes; the raw
// values are always reported beside the normalised ones (raw.*, host.*).
const (
	refEchoUS      = 30.0
	refSpinNS      = 410.0
	probeSampleFor = 100 * time.Millisecond
)

// hostProbe owns the echo server.
type hostProbe struct {
	post  func([]byte) ([]byte, error)
	close func()
}

func newHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(w, r.Body)
	})}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // ErrServerClosed on close
		close(done)
	}()
	post, closeConn := newPoster("http://" + ln.Addr().String())
	return &hostProbe{post: post, close: func() {
		closeConn()
		_ = srv.Close()
		<-done
	}}, nil
}

// hostSample is one reading of both probes.
type hostSample struct {
	echoUS float64 // median loopback round trip
	spinNS float64 // arithmetic loop, per pass
}

func (s hostSample) index() float64 {
	return math.Sqrt(s.echoUS / refEchoUS * s.spinNS / refSpinNS)
}

// probeBody is the size of a single-task decide request.
var probeBody = make([]byte, 96)

// spinSink keeps the arithmetic loop's result alive.
var spinSink float64

// sample reads both probes, probeSampleFor each.
func (p *hostProbe) sample() hostSample {
	var trips []float64
	for end := time.Now().Add(probeSampleFor); time.Now().Before(end); {
		t0 := time.Now()
		if _, err := p.post(probeBody); err != nil {
			break // a dead echo server reads as "no sample", index 1
		}
		trips = append(trips, float64(time.Since(t0))/float64(time.Microsecond))
	}
	var a [4096]float64
	for i := range a {
		a[i] = float64(i%97) / 97
	}
	passes := 0
	t0 := time.Now()
	for time.Since(t0) < probeSampleFor {
		for k := 0; k < 64; k++ {
			s := 0.0
			for i := 0; i < len(a)-32; i += 7 {
				s += a[i] * a[i+(k&31)]
			}
			spinSink += s
		}
		passes += 64
	}
	return hostSample{echoUS: median(trips), spinNS: float64(time.Since(t0)) / float64(passes)}
}

// round runs one round of r with the host probes read before and after.
func (e *env) round(ctx context.Context, r runner, traced, verify bool) roundResult {
	before := e.probe.sample()
	res := r.round(ctx, traced, verify)
	after := e.probe.sample()
	res.host = hostSample{echoUS: (before.echoUS + after.echoUS) / 2, spinNS: (before.spinNS + after.spinNS) / 2}
	return res
}
