package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("threads", "tx/s")
	tb.AddRow("1", "100")
	tb.AddRowf(16, 123456.789)
	out := tb.String()
	if !strings.Contains(out, "threads") || !strings.Contains(out, "123456.789") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("lines = %d, want 4 (header, rule, 2 rows)", len(lines))
	}
	// Aligned: all lines equally wide.
	for _, l := range lines[1:] {
		if len(l) != len(lines[0]) {
			t.Errorf("ragged table:\n%s", out)
			break
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("1", "2")
	want := "a,b\n1,2\n"
	if got := tb.CSV(); got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("x")
	tb.AddRow("1", "2", "3")
	tb.AddRow()
	out := tb.String()
	if !strings.Contains(out, "3") {
		t.Errorf("extra cells dropped:\n%s", out)
	}
}
