package value

import (
	"reflect"
	"strconv"
	"sync"
	"testing"
)

func TestDictCodesAreDenseAndStable(t *testing.T) {
	d := NewDict()
	words := []string{"pear", "apple", "", "fig"}
	for want, s := range words {
		if got := d.Code(s); got != int64(want) {
			t.Errorf("Code(%q) = %d, want the next dense code %d", s, got, want)
		}
	}
	for want, s := range words {
		if got := d.Code(s); got != int64(want) {
			t.Errorf("second Code(%q) = %d, want %d", s, got, want)
		}
		if got, ok := d.Lookup(s); !ok || got != int64(want) {
			t.Errorf("Lookup(%q) = %d, %v", s, got, ok)
		}
		if got := d.Value(int64(want)); got != s {
			t.Errorf("Value(%d) = %q, want %q", want, got, s)
		}
	}
	if d.Len() != len(words) {
		t.Errorf("Len = %d, want %d", d.Len(), len(words))
	}
	if _, ok := d.Lookup("plum"); ok || d.Len() != len(words) {
		t.Error("Lookup of an unseen string found it or interned it")
	}
	for _, code := range []int64{-1, int64(len(words)), NullCode} {
		if got := d.Value(code); got != "" {
			t.Errorf("Value(%d) = %q, want \"\" for a code never handed out", code, got)
		}
	}

	vals := d.Values()
	if !reflect.DeepEqual(vals, words) {
		t.Errorf("Values = %q, want %q", vals, words)
	}
	vals[0] = "mutated"
	if d.Value(0) != "pear" {
		t.Error("Values exposed the dictionary's own table")
	}
}

func TestDictMergeRemap(t *testing.T) {
	d := NewDict()
	for _, s := range []string{"red", "green"} {
		d.Code(s)
	}
	other := NewDict()
	for _, s := range []string{"blue", "green", "red", "cyan"} {
		other.Code(s)
	}
	remap := d.Merge(other)
	// green and red are already shared and keep d's codes; blue and cyan are
	// appended in other's code order.
	if want := []int64{2, 1, 0, 3}; !reflect.DeepEqual(remap, want) {
		t.Fatalf("remap = %v, want %v", remap, want)
	}
	for oldCode, s := range other.Values() {
		if got := d.Value(remap[oldCode]); got != s {
			t.Errorf("other's code %d (%q) remaps to %d, which decodes to %q", oldCode, s, remap[oldCode], got)
		}
	}
	if d.Len() != 4 || other.Len() != 4 {
		t.Errorf("after merge d holds %d strings and other %d, want 4 and 4", d.Len(), other.Len())
	}
	if again := d.Merge(other); !reflect.DeepEqual(again, remap) {
		t.Errorf("merging twice moved codes: %v then %v", remap, again)
	}
	if self := d.Merge(d); !reflect.DeepEqual(self, []int64{0, 1, 2, 3}) {
		t.Errorf("self-merge remap = %v, want the identity", self)
	}
	if empty := d.Merge(NewDict()); len(empty) != 0 || d.Len() != 4 {
		t.Errorf("merging an empty dictionary returned %v and left %d strings", empty, d.Len())
	}
}

// TestDictConcurrentCode interns overlapping key sets from several
// goroutines while readers decode; under -race this is the package's data-
// race check. Every string must end with exactly one code, dense over the
// distinct strings, and no goroutine may ever have been handed NullCode.
func TestDictConcurrentCode(t *testing.T) {
	const goroutines, keys = 8, 200
	d := NewDict()
	got := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes := make([]int64, keys)
			for i := range codes {
				// Neighbouring goroutines share half their keys.
				s := "k" + strconv.Itoa(i+g*keys/2)
				codes[i] = d.Code(s)
				if v := d.Value(codes[i]); v != s {
					t.Errorf("Value(Code(%q)) = %q", s, v)
				}
				d.Len()
				d.Lookup(s)
			}
			got[g] = codes
		}()
	}
	wg.Wait()

	distinct := (goroutines + 1) * keys / 2
	if d.Len() != distinct {
		t.Fatalf("Len = %d, want %d distinct strings", d.Len(), distinct)
	}
	for g, codes := range got {
		for i, c := range codes {
			s := "k" + strconv.Itoa(i+g*keys/2)
			if c == NullCode || c < 0 || c >= int64(distinct) {
				t.Fatalf("goroutine %d was handed code %d for %q, outside [0, %d)", g, c, s, distinct)
			}
			if again, ok := d.Lookup(s); !ok || again != c {
				t.Errorf("%q: goroutine %d got code %d, the dictionary now says %d, %v", s, g, c, again, ok)
			}
		}
	}
}

func TestColTypeString(t *testing.T) {
	if Int64.String() != "int64" || String.String() != "string" || ColType(9).String() != "ColType(9)" {
		t.Errorf("ColType names: %v %v %v", Int64, String, ColType(9))
	}
}
