package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"prophetcritic/internal/program"
)

// FuzzTraceReader feeds arbitrary bytes to the trace reader and drains
// it. On untrusted input the reader must return an error, never panic
// or allocate for counts the bytes cannot back, and everything it does
// return must be usable: CFG edges in range, and every event naming a
// block the trace declared at the event's own address. Traces recorded
// with and without a CFG are seeded here and in the checked-in corpus
// (testdata/fuzz/FuzzTraceReader, which also holds the hostile header
// of TestReaderBoundsClaimedCFG), so the fuzzer mutates valid files
// too.
func FuzzTraceReader(f *testing.F) {
	for _, cfg := range []bool{true, false} {
		var buf bytes.Buffer
		p := program.MustLoad("swim")
		var blocks []program.Block
		if cfg {
			blocks = p.Blocks()
		}
		w, err := NewWriter(&buf, Meta{Name: p.Name, Suite: p.Suite, Measure: 300}, blocks)
		if err != nil {
			f.Fatal(err)
		}
		run := p.NewRun()
		for i := 0; i < 300; i++ {
			if err := w.WriteEvent(run.Next()); err != nil {
				f.Fatal(err)
			}
		}
		run.Close()
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		defer r.Close()
		cfg := r.CFG()
		for i, b := range cfg {
			if b.ID != i || b.TakenTo < -1 || b.TakenTo >= len(cfg) || b.NotTakenTo < -1 || b.NotTakenTo >= len(cfg) {
				t.Fatalf("block %d: id %d, edges %d/%d out of range for %d blocks", i, b.ID, b.TakenTo, b.NotTakenTo, len(cfg))
			}
		}
		for {
			ev, err := r.Next()
			if err == io.EOF {
				if _, ok := r.Stats(); !ok {
					t.Fatal("EOF without valid end-record totals")
				}
				return
			}
			if err != nil {
				return
			}
			if ev.BlockID < 0 || ev.BlockID >= len(r.byAddr) {
				t.Fatalf("event names block %d of %d declared", ev.BlockID, len(r.byAddr))
			}
			if cfg != nil && cfg[ev.BlockID].Addr != ev.Addr {
				t.Fatalf("event at %#x names block %d at %#x", ev.Addr, ev.BlockID, cfg[ev.BlockID].Addr)
			}
		}
	})
}

// hostileHeader is a trace whose header claims a CFG of n blocks and
// then ends: the shape of the 40-byte file that once had the reader
// allocate for 2^28 blocks.
func hostileHeader(t testing.TB, n uint64) []byte {
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	var body []byte
	body = binary.AppendUvarint(body, 1) // name "x"
	body = append(body, 'x')
	body = binary.AppendUvarint(body, 0)     // suite ""
	for _, v := range []uint64{0, 0, 1, n} { // seed, warmup, measure, CFG size
		body = binary.AppendUvarint(body, v)
	}
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return append([]byte{'P', 'C', 'T', 'R', version}, z.Bytes()...)
}

// A header may claim any CFG size. The reader refuses a claim above
// maxCFGBlocks outright and fails a smaller unbacked one at the first
// missing block; either way it allocates for what the stream holds,
// not for the claim.
func TestReaderBoundsClaimedCFG(t *testing.T) {
	for _, n := range []uint64{1 << 28, maxCFGBlocks + 1, maxCFGBlocks} {
		data := hostileHeader(t, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Fatalf("header claiming %d blocks with none present accepted", n)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
			t.Errorf("header claiming %d blocks allocated %d bytes", n, alloc)
		}
	}
}
