// Package tracetest holds trace helpers shared by other packages' tests.
package tracetest

import (
	"os"
	"path/filepath"
	"testing"

	"prophetcritic/internal/program"
	"prophetcritic/internal/trace"
)

// Inferred records the first n committed branches of p without its CFG
// and loads the file back, so the replay program's blocks (and block
// order) are inferred from the event stream.
func Inferred(t testing.TB, p *program.Program, n int) *program.Program {
	t.Helper()
	path := filepath.Join(t.TempDir(), p.Name+".pctr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, trace.Meta{Name: p.Name, Suite: p.Suite, Seed: p.Seed(), Measure: n}, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := p.NewRun()
	for i := 0; i < n; i++ {
		if err := w.WriteEvent(run.Next()); err != nil {
			t.Fatal(err)
		}
	}
	run.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rp, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}
