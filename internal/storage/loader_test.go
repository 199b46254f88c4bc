package storage

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/value"
)

func TestDictBasics(t *testing.T) {
	d := NewDict()
	a := d.Code("apple")
	b := d.Code("banana")
	if a == b {
		t.Fatal("distinct values share a code")
	}
	if got := d.Code("apple"); got != a {
		t.Error("Code not stable")
	}
	if v := d.Value(b); v != "banana" {
		t.Errorf("Value = %q", v)
	}
	if d.Value(99) != "" {
		t.Error("out-of-range Value should be empty")
	}
	if _, ok := d.Lookup("cherry"); ok {
		t.Error("Lookup interned")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestLoadCSV(t *testing.T) {
	rel := catalog.NewRelation("people", "id", "name", "age")
	dict := NewDict()
	src := "id,name,age\n1,alice,30\n2,bob,25\n3,alice,41\n"
	tab, err := LoadCSV(rel, strings.NewReader(src), CSVOptions{
		Header: true,
		Dicts:  map[string]*Dict{"name": dict},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 3 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	name := tab.Col("name")
	if name[0] != name[2] || name[0] == name[1] {
		t.Errorf("dictionary encoding broken: %v", name)
	}
	if dict.Value(name[1]) != "bob" {
		t.Errorf("decode = %q", dict.Value(name[1]))
	}
	if tab.Col("age")[2] != 41 {
		t.Errorf("age = %v", tab.Col("age"))
	}
}

func TestLoadCSVErrors(t *testing.T) {
	rel := catalog.NewRelation("t", "a", "b")
	if _, err := LoadCSV(rel, strings.NewReader("1,2,3\n"), CSVOptions{}); err == nil {
		t.Error("wrong field count accepted")
	}
	if _, err := LoadCSV(rel, strings.NewReader("1,notanint\n"), CSVOptions{}); err == nil {
		t.Error("non-integer without dict accepted")
	}
}

// TestLoadCSVRejectsNullSentinel: the engine reads value.NullCode as NULL in
// every column, so a non-nullable int64 column must not load it as data.
func TestLoadCSVRejectsNullSentinel(t *testing.T) {
	sentinel := strconv.FormatInt(math.MinInt64, 10)
	for _, nullable := range []bool{false, true} {
		rel := catalog.NewTypedRelation("t", catalog.Column{Name: "x", Nullable: nullable})
		if _, err := LoadCSV(rel, strings.NewReader("5\n"+sentinel+"\n"), CSVOptions{}); err == nil {
			t.Errorf("nullable=%v: math.MinInt64 loaded as data", nullable)
		}
	}
}

// TestDictConcurrentReaders holds the documented concurrency contract under
// the race detector: any number of readers (Value, Lookup, Len, Values) may
// run against a writer interning new strings via Code.
func TestDictConcurrentReaders(t *testing.T) {
	d := NewDict()
	base := d.Code("seed")
	const writes = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writes; i++ {
			d.Code("w" + strconv.Itoa(i))
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if got := d.Value(base); got != "seed" {
					t.Errorf("Value(seed) = %q under concurrent interning", got)
					return
				}
				if c, ok := d.Lookup("seed"); !ok || c != base {
					t.Errorf("Lookup(seed) = %d,%v under concurrent interning", c, ok)
					return
				}
				n := d.Len()
				if vals := d.Values(); len(vals) < n-1 {
					// Values snapshots under the read lock; it may trail Len
					// by later writes but never observe a torn prefix.
					t.Errorf("Values len %d < Len %d - 1", len(vals), n)
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
	if d.Len() != writes+1 {
		t.Fatalf("Len = %d, want %d", d.Len(), writes+1)
	}
}

// TestDictDecodeRoundTrip loads a nullable string column and decodes every
// cell back: non-NULL cells round-trip exactly, NULL cells hold
// value.NullCode and are excluded from the dictionary.
func TestDictDecodeRoundTrip(t *testing.T) {
	rel := catalog.NewTypedRelation("people",
		catalog.Column{Name: "id"},
		catalog.Column{Name: "name", Type: value.String, Nullable: true},
	)
	src := "id,name\n1,alice\n2,\n3,bob\n4,alice\n5,\\N\n"
	tab, err := LoadCSV(rel, strings.NewReader(src), CSVOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	dict := rel.Column("name").Dict
	want := []string{"alice", "", "bob", "alice", ""}
	wantNull := []bool{false, true, false, false, true}
	col := tab.Col("name")
	for r, w := range want {
		if wantNull[r] {
			if col[r] != value.NullCode {
				t.Errorf("row %d: NULL cell holds code %d", r, col[r])
			}
			continue
		}
		if got := dict.Value(col[r]); got != w {
			t.Errorf("row %d: decoded %q, want %q", r, got, w)
		}
	}
	if dict.Len() != 2 { // alice, bob — NULLs intern nothing
		t.Errorf("dict has %d entries: %v", dict.Len(), dict.Values())
	}
}
