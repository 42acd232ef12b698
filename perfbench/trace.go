package main

import (
	"time"

	"thermostat/internal/addr"
	"thermostat/internal/core"
	"thermostat/internal/sim"
	"thermostat/internal/workload"
)

// genSampleEvery is how often the per-op generation path (the fleet's
// App.Next) is timed: a host clock read costs about as much as generating
// one access, so timing every call would double the layer it measures.
const genSampleEvery = 16

// captureWindow is how many of the run's last requests the traced run keeps
// for the access-path component replay (a power of two).
const captureWindow = 1 << 18

// tracer accumulates host time per layer for one traced op. The benchmark
// runs on one goroutine, so it needs no locking.
type tracer struct {
	// clockNs is the calibrated cost of one empty time.Now/time.Since
	// pair, subtracted from each sampled generation call.
	clockNs int64

	batchGenNs             int64
	nextCalls, nextSampled int64
	nextSampledNs          int64

	appTickNs   int64
	footprintNs int64

	correctNs, estimatesNs, placeNs, armNs int64
	tickStart                              time.Time
	ticks                                  []int64

	ring  []sim.Req
	ringN int
}

func newTracer() *tracer {
	return &tracer{clockNs: clockCost(), ring: make([]sim.Req, captureWindow)}
}

// clockCost measures the median host cost of an empty timed interval.
func clockCost() int64 {
	const n = 1001
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	return int64(median(d))
}

// genNs estimates the op's total generation time: batches are timed whole,
// per-op calls are sampled and scaled up.
func (t *tracer) genNs() int64 {
	ns := t.batchGenNs
	if t.nextSampled > 0 {
		ns += t.nextSampledNs * t.nextCalls / t.nextSampled
	}
	return ns
}

func (t *tracer) capture(r sim.Req) {
	t.ring[t.ringN&(captureWindow-1)] = r
	t.ringN++
}

// window returns the captured requests in issue order.
func (t *tracer) window() []sim.Req {
	if t.ringN <= captureWindow {
		return append([]sim.Req(nil), t.ring[:t.ringN]...)
	}
	at := t.ringN & (captureWindow - 1)
	return append(append([]sim.Req(nil), t.ring[at:]...), t.ring[:at]...)
}

func (t *tracer) tickNs() int64 {
	var s int64
	for _, d := range t.ticks {
		s += d
	}
	return s
}

// benchApp wraps a workload app. It keeps the BatchApp fast path, stamps
// the first generated access (the end of set-up) and, when traced, times
// generation and app ticks and captures the request stream.
type benchApp struct {
	*workload.App
	tr       *tracer
	first    time.Time
	firstCPU time.Duration
}

// stamp records the end of set-up on the first generated access.
func (a *benchApp) stamp() {
	if a.first.IsZero() {
		a.first, a.firstCPU = time.Now(), cpuNow()
	}
}

// Next implements sim.App.
func (a *benchApp) Next() (addr.Virt, bool) {
	a.stamp()
	t := a.tr
	if t == nil {
		return a.App.Next()
	}
	t.nextCalls++
	var v addr.Virt
	var w bool
	if t.nextCalls%genSampleEvery == 0 {
		t0 := time.Now()
		v, w = a.App.Next()
		t.nextSampledNs += time.Since(t0).Nanoseconds() - t.clockNs
		t.nextSampled++
	} else {
		v, w = a.App.Next()
	}
	t.capture(sim.Req{V: v, Write: w})
	return v, w
}

// NextBatch implements sim.BatchApp.
func (a *benchApp) NextBatch(reqs []sim.Req) int {
	a.stamp()
	t := a.tr
	if t == nil {
		return a.App.NextBatch(reqs)
	}
	t0 := time.Now()
	n := a.App.NextBatch(reqs)
	t.batchGenNs += time.Since(t0).Nanoseconds()
	for _, r := range reqs[:n] {
		t.capture(r)
	}
	return n
}

// Tick implements sim.App.
func (a *benchApp) Tick(m *sim.Machine, now int64) error {
	if a.tr == nil {
		return a.App.Tick(m, now)
	}
	t0 := time.Now()
	err := a.App.Tick(m, now)
	a.tr.appTickNs += time.Since(t0).Nanoseconds()
	return err
}

// tracedTracker times the tracker phases of each engine tick. Every other
// method, the optional ones the engine probes for included, is the
// embedded tracker's.
type tracedTracker struct {
	*core.PoisonTracker
	tr *tracer
}

// Estimates implements core.Tracker.
func (w *tracedTracker) Estimates(intervalSec float64) ([]core.Estimate, error) {
	t0 := time.Now()
	e, err := w.PoisonTracker.Estimates(intervalSec)
	w.tr.estimatesNs += time.Since(t0).Nanoseconds()
	return e, err
}

// Arm implements core.Tracker.
func (w *tracedTracker) Arm() error {
	t0 := time.Now()
	err := w.PoisonTracker.Arm()
	w.tr.armNs += time.Since(t0).Nanoseconds()
	return err
}

// tracedPolicy times the policy phases and brackets each engine tick: a
// tick runs Correct first and EndPeriod last (no engine here is frozen, so
// Correct always runs).
type tracedPolicy struct {
	*core.ThresholdPolicy
	tr *tracer
}

// Correct implements core.Policy.
func (w *tracedPolicy) Correct(intervalSec float64) error {
	t0 := time.Now()
	w.tr.tickStart = t0
	err := w.ThresholdPolicy.Correct(intervalSec)
	w.tr.correctNs += time.Since(t0).Nanoseconds()
	return err
}

// Place implements core.Policy.
func (w *tracedPolicy) Place(ests []core.Estimate) error {
	t0 := time.Now()
	err := w.ThresholdPolicy.Place(ests)
	w.tr.placeNs += time.Since(t0).Nanoseconds()
	return err
}

// EndPeriod implements core.Policy.
func (w *tracedPolicy) EndPeriod() {
	w.ThresholdPolicy.EndPeriod()
	w.tr.ticks = append(w.tr.ticks, time.Since(w.tr.tickStart).Nanoseconds())
}

// tracedSimPolicy times the engine's footprint classification, which
// sim.Run calls at every metric window.
type tracedSimPolicy struct {
	*core.Engine
	tr *tracer
}

// Footprint implements sim.Policy.
func (p *tracedSimPolicy) Footprint(m *sim.Machine) sim.Footprint {
	t0 := time.Now()
	fp := p.Engine.Footprint(m)
	p.tr.footprintNs += time.Since(t0).Nanoseconds()
	return fp
}
