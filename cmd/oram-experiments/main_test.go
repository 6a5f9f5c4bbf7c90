package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestSectionNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range sections {
		if s.name == "" || s.title == "" || s.run == nil {
			t.Errorf("incomplete section %+v", s)
		}
		if seen[s.name] {
			t.Errorf("duplicate section name %q", s.name)
		}
		seen[s.name] = true
	}
	const order = "fig3 fig4 fig7 fig8 fig9 fig10 fig5 fig11 table2 fig12 integrity ablate"
	if got := sectionNames(); got != order {
		t.Errorf("report order %q, want %q", got, order)
	}
}

func TestSelectSections(t *testing.T) {
	all, err := selectSections(nil)
	if err != nil || len(all) != len(sections) {
		t.Fatalf("no names: %d sections, err %v; want all %d", len(all), err, len(sections))
	}
	// Selection keeps report order, whatever order the names come in.
	got, err := selectSections([]string{"fig11", "fig4", "fig11"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range got {
		names = append(names, s.name)
	}
	if want := []string{"fig4", "fig11"}; !reflect.DeepEqual(names, want) {
		t.Errorf("selected %v, want %v", names, want)
	}
	// An unknown name is rejected, and the error lists the valid names.
	_, err = selectSections([]string{"fig4", "fig6"})
	if err == nil || !strings.Contains(err.Error(), `"fig6"`) {
		t.Fatalf("unknown section: err = %v, want it named", err)
	}
	for _, s := range sections {
		if !strings.Contains(err.Error(), s.name) {
			t.Errorf("error %q does not list section %q", err, s.name)
		}
	}
}

// TestTraceRecordReplayRoundTrip records a trace to a file, checks the
// file decodes to exactly the recorded instructions, and replays it.
func TestTraceRecordReplayRoundTrip(t *testing.T) {
	const n = 20_000
	path := filepath.Join(t.TempDir(), "mcf.pot")
	var out bytes.Buffer
	if err := recordTrace(&out, "mcf", path, n); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "recorded 20000 instructions of mcf") {
		t.Errorf("record output %q", out.String())
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := trace.Record(trace.ProfileByName("mcf").Generator(traceSeed), n); !reflect.DeepEqual(got, want) {
		t.Fatal("trace file does not decode to the recorded instructions")
	}

	out.Reset()
	if err := runTrace(&out, []string{"replay", path}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "replayed 20000 instructions: CPI=") {
		t.Errorf("replay output %q", out.String())
	}
}

func TestTraceUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		nil,
		{"record", "mcf"},
		{"record", "no-such-profile", filepath.Join(dir, "x.pot")},
		{"replay"},
		{"bogus"},
	} {
		if err := runTrace(&bytes.Buffer{}, args); !errors.Is(err, errTraceUsage) {
			t.Errorf("trace %v: err = %v, want a usage error", args, err)
		}
	}
	// A write failure is an error, not a usage error.
	err := runTrace(&bytes.Buffer{}, []string{"record", "mcf", filepath.Join(dir, "missing", "x.pot")})
	if err == nil || errors.Is(err, errTraceUsage) {
		t.Errorf("record into a missing directory: err = %v, want an I/O error", err)
	}
}
