// Package trace records and replays memory-access streams in a compact
// binary format (delta-encoded varints), so experiments can be captured
// once and replayed deterministically — the Pin-trace analogue of the
// X-Mem profiling flow the paper contrasts itself with.
//
// A trace carries a header describing the regions the workload allocated;
// replay re-allocates them in order on a fresh machine (whose deterministic
// bump allocator reproduces identical virtual addresses) and streams the
// recorded accesses.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"thermostat/internal/addr"
	"thermostat/internal/sim"
)

// magic identifies a trace stream.
const magic = "THRM"

const version = 1

// RegionInfo describes one allocation the traced workload made, in order.
type RegionInfo struct {
	// Size in bytes.
	Size uint64
	// Huge selects 2MB THP backing.
	Huge bool
}

// Record is one memory access.
type Record struct {
	V     addr.Virt
	Write bool
}

// Writer encodes a trace.
type Writer struct {
	w       *bufio.Writer
	prev    uint64
	count   uint64
	started bool
}

// NewWriter writes the header (regions and per-op compute) and returns a
// record encoder.
func NewWriter(w io.Writer, regions []RegionInfo, computeNs int64) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(version); err != nil {
		return nil, err
	}
	if err := putUvarint(uint64(computeNs)); err != nil {
		return nil, err
	}
	if err := putUvarint(uint64(len(regions))); err != nil {
		return nil, err
	}
	for _, r := range regions {
		if r.Size == 0 {
			return nil, fmt.Errorf("trace: zero-size region in header")
		}
		if err := putUvarint(r.Size); err != nil {
			return nil, err
		}
		h := uint64(0)
		if r.Huge {
			h = 1
		}
		if err := putUvarint(h); err != nil {
			return nil, err
		}
	}
	return &Writer{w: bw}, nil
}

// Write appends one record: zigzag-varint address delta, with the write
// flag folded into the low bit.
func (t *Writer) Write(rec Record) error {
	delta := int64(uint64(rec.V) - t.prev)
	if !t.started {
		delta = int64(uint64(rec.V))
		t.started = true
	}
	t.prev = uint64(rec.V)
	// Zigzag the delta, shift left one, fold the write bit in.
	zz := uint64(delta<<1) ^ uint64(delta>>63)
	payload := zz << 1
	if rec.Write {
		payload |= 1
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], payload)
	if _, err := t.w.Write(buf[:n]); err != nil {
		return err
	}
	t.count++
	return nil
}

// Count returns the number of records written.
func (t *Writer) Count() uint64 { return t.count }

// Flush drains buffered output; call before closing the destination.
func (t *Writer) Flush() error { return t.w.Flush() }

// Reader decodes a trace.
type Reader struct {
	r         *bufio.Reader
	regions   []RegionInfo
	computeNs int64
	prev      uint64
	started   bool
}

// NewReader parses the header and returns a record decoder.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var m [len(magic)]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: short magic: %w", err)
	}
	if string(m[:]) != magic {
		return nil, errors.New("trace: bad magic")
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	compute, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("trace: absurd region count %d", n)
	}
	regions := make([]RegionInfo, n)
	for i := range regions {
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		huge, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		regions[i] = RegionInfo{Size: size, Huge: huge == 1}
	}
	return &Reader{r: br, regions: regions, computeNs: int64(compute)}, nil
}

// Regions returns the header's allocation list.
func (t *Reader) Regions() []RegionInfo {
	return append([]RegionInfo(nil), t.regions...)
}

// ComputeNs returns the recorded per-op compute time.
func (t *Reader) ComputeNs() int64 { return t.computeNs }

// Read returns the next record, or io.EOF at the end of the trace.
func (t *Reader) Read() (Record, error) {
	payload, err := binary.ReadUvarint(t.r)
	if err != nil {
		return Record{}, err
	}
	write := payload&1 == 1
	zz := payload >> 1
	delta := int64(zz>>1) ^ -int64(zz&1)
	var v uint64
	if !t.started {
		v = uint64(delta)
		t.started = true
	} else {
		v = t.prev + uint64(delta)
	}
	t.prev = v
	return Record{V: addr.Virt(v), Write: write}, nil
}

// Recorder wraps a sim.App and tees every access it produces into a Writer.
type Recorder struct {
	App sim.App
	W   *Writer

	err error
}

// Name implements sim.App.
func (r *Recorder) Name() string { return r.App.Name() + "+trace" }

// Init implements sim.App.
func (r *Recorder) Init(m *sim.Machine) error { return r.App.Init(m) }

// ComputeNs implements sim.App.
func (r *Recorder) ComputeNs() int64 { return r.App.ComputeNs() }

// Tick implements sim.App.
func (r *Recorder) Tick(m *sim.Machine, now int64) error { return r.App.Tick(m, now) }

// Next implements sim.App.
func (r *Recorder) Next() (addr.Virt, bool) {
	v, w := r.App.Next()
	if r.err == nil {
		r.err = r.W.Write(Record{V: v, Write: w})
	}
	return v, w
}

// Err reports any write error swallowed during Next.
func (r *Recorder) Err() error { return r.err }

// Replay is a sim.App that replays a trace. When the trace is exhausted it
// wraps to the beginning, so runs may be longer than the recording; Loops
// reports how many times it wrapped. The rewind callback must re-open the
// underlying stream.
type Replay struct {
	name      string
	open      func() (*Reader, error)
	r         *Reader
	records   []Record // fully buffered for cheap looping
	pos       int
	loops     int
	computeNs int64
}

// NewReplay builds a replay app; open must return a fresh Reader over the
// trace each time it is called (it is called once immediately).
func NewReplay(name string, open func() (*Reader, error)) (*Replay, error) {
	r, err := open()
	if err != nil {
		return nil, err
	}
	rp := &Replay{name: name, open: open, r: r, computeNs: r.ComputeNs()}
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rp.records = append(rp.records, rec)
	}
	if len(rp.records) == 0 {
		return nil, errors.New("trace: empty trace")
	}
	return rp, nil
}

// Name implements sim.App.
func (p *Replay) Name() string { return p.name }

// ComputeNs implements sim.App.
func (p *Replay) ComputeNs() int64 { return p.computeNs }

// Tick implements sim.App.
func (p *Replay) Tick(*sim.Machine, int64) error { return nil }

// Init implements sim.App: re-allocate the recorded regions in order.
func (p *Replay) Init(m *sim.Machine) error {
	for _, reg := range p.r.Regions() {
		if _, err := m.AllocRegion(reg.Size, reg.Huge); err != nil {
			return err
		}
	}
	return nil
}

// Next implements sim.App.
func (p *Replay) Next() (addr.Virt, bool) {
	rec := p.records[p.pos]
	p.pos++
	if p.pos == len(p.records) {
		p.pos = 0
		p.loops++
	}
	return rec.V, rec.Write
}

// Loops reports how many times the trace wrapped.
func (p *Replay) Loops() int { return p.loops }

// Len returns the number of records in the trace.
func (p *Replay) Len() int { return len(p.records) }
