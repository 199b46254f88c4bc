package storage

import (
	"testing"

	"github.com/roulette-db/roulette/internal/catalog"
)

func TestTableBasics(t *testing.T) {
	rel := catalog.NewRelation("r", "a", "b")
	tab := NewTable(rel, 10)
	if tab.NumRows() != 10 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
	a := tab.Col("a")
	for i := range a {
		a[i] = int64(i * 2)
	}
	if tab.Col("a")[3] != 6 {
		t.Error("column write not visible")
	}
	if tab.ColAt(0)[3] != 6 {
		t.Error("ColAt disagrees with Col")
	}

	defer func() {
		if recover() == nil {
			t.Error("Col of missing column should panic")
		}
	}()
	tab.Col("missing")
}

func TestFromColumnsValidation(t *testing.T) {
	rel := catalog.NewRelation("r", "a", "b")
	if _, err := FromColumns(rel, []int64{1, 2}, []int64{1}); err == nil {
		t.Error("mismatched column lengths should be an error")
	}
	if _, err := FromColumns(rel, []int64{1, 2}); err == nil {
		t.Error("column-count mismatch should be an error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustFromColumns should panic on error")
			}
		}()
		MustFromColumns(rel, []int64{1, 2}, []int64{1})
	}()
}

func TestDatabase(t *testing.T) {
	rel := catalog.NewRelation("r", "a")
	sch := catalog.NewSchema(rel)
	db := NewDatabase(sch)
	db.Put(NewTable(rel, 5))
	if db.Table("r") == nil {
		t.Fatal("table not found")
	}
	if db.Table("x") != nil {
		t.Fatal("phantom table")
	}
	if got := db.MustTable("r").NumRows(); got != 5 {
		t.Errorf("rows = %d", got)
	}
	if len(db.TableNames()) != 1 {
		t.Errorf("TableNames = %v", db.TableNames())
	}
}

func TestCircularScanCoversAllOncePerPass(t *testing.T) {
	for _, rows := range []int{1, 5, 10, 17, 100} {
		for _, vec := range []int{1, 4, 7, 16, 128} {
			s, err := NewCircularScan(rows, vec)
			if err != nil {
				t.Fatal(err)
			}
			seen := make([]int, rows)
			for i := 0; i < s.VectorsPerPass(); i++ {
				start, n := s.Next()
				if n == 0 {
					t.Fatalf("rows=%d vec=%d: empty vector mid-pass", rows, vec)
				}
				for j := 0; j < n; j++ {
					seen[start+j]++
				}
			}
			for v, c := range seen {
				if c != 1 {
					t.Fatalf("rows=%d vec=%d: vID %d seen %d times", rows, vec, v, c)
				}
			}
			if s.Pos() != 0 {
				t.Fatalf("rows=%d vec=%d: pos after full pass = %d", rows, vec, s.Pos())
			}
		}
	}
}

func TestCircularScanWrap(t *testing.T) {
	s, err := NewCircularScan(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Vectors: [0,4) [4,8) [8,10) then wrap to [0,4).
	wants := [][2]int{{0, 4}, {4, 4}, {8, 2}, {0, 4}}
	for i, w := range wants {
		start, n := s.Next()
		if start != w[0] || n != w[1] {
			t.Fatalf("Next #%d = (%d,%d), want (%d,%d)", i, start, n, w[0], w[1])
		}
	}
}

func TestCircularScanEmpty(t *testing.T) {
	s, err := NewCircularScan(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCircularScan(5, 0); err == nil {
		t.Error("non-positive vector size should be an error")
	}
	if _, n := s.Next(); n != 0 {
		t.Error("empty table should yield empty vectors")
	}
	if s.VectorsPerPass() != 0 {
		t.Error("VectorsPerPass on empty table")
	}
}

func TestCatalogSchema(t *testing.T) {
	r := catalog.NewRelation("fact", "k", "d1_k")
	d := catalog.NewRelation("d1", "k", "v")
	sch := catalog.NewSchema(r, d)
	sch.AddFK("fact", "d1_k", "d1", "k")
	if len(sch.Edges) != 1 || sch.Edges[0].Child != "fact" || sch.Edges[0].Parent != "d1" {
		t.Errorf("Edges = %+v", sch.Edges)
	}
	if sch.Relation("fact").ColIndex("d1_k") != 1 {
		t.Error("ColIndex wrong")
	}
	if sch.Relation("nope") != nil {
		t.Error("phantom relation")
	}
}
