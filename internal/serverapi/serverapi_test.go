package serverapi

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzTransduceSpanLine pins AppendTransduceSpan to encoding/json: for
// any values its line is json.Marshal's plus a newline, appended after
// whatever dst already held.
func FuzzTransduceSpanLine(f *testing.F) {
	f.Add(0, 0, 0)
	f.Add(3, 17, 5)
	f.Add(-1, math.MaxInt, math.MinInt)
	f.Add(1<<40, 1<<40+9, 65535)
	f.Fuzz(func(t *testing.T, start, end, out int) {
		sp := TransduceSpan{Start: start, End: end, Out: out}
		want, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		prefix := []byte("prefix\n")
		got := AppendTransduceSpan(append([]byte(nil), prefix...), sp)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendTransduceSpan(%+v) = %q, json.Marshal gives %q", sp, got[len(prefix):], want)
		}
	})
}
