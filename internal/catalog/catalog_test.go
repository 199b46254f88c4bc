package catalog

import "testing"

func TestRelationColumns(t *testing.T) {
	r := NewRelation("t", "a", "b", "c")
	if r.ColIndex("b") != 1 {
		t.Errorf("ColIndex(b) = %d", r.ColIndex("b"))
	}
	if r.ColIndex("z") != -1 {
		t.Errorf("ColIndex(z) = %d", r.ColIndex("z"))
	}
	if !r.HasColumn("c") || r.HasColumn("z") {
		t.Error("HasColumn wrong")
	}
	if len(r.Columns) != 3 || r.Columns[2].Name != "c" {
		t.Errorf("Columns = %+v", r.Columns)
	}
}

func TestSchemaRelations(t *testing.T) {
	a := NewRelation("a", "k")
	b := NewRelation("b", "k", "fk")
	s := NewSchema(a, b)
	if s.Relation("a") != a || s.Relation("b") != b {
		t.Error("Relation lookup broken")
	}
	if s.Relation("c") != nil {
		t.Error("phantom relation")
	}
	c := NewRelation("c", "x")
	if err := s.AddRelation(c); err != nil {
		t.Fatal(err)
	}
	if s.Relation("c") != c {
		t.Error("AddRelation lookup broken")
	}
	if err := s.AddRelation(NewRelation("a", "k")); err == nil {
		t.Error("duplicate relation should be an error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustAddRelation on a duplicate should panic")
			}
		}()
		s.MustAddRelation(NewRelation("a", "k"))
	}()
}

func TestSchemaFKs(t *testing.T) {
	a := NewRelation("a", "k")
	b := NewRelation("b", "k", "fk")
	s := NewSchema(a, b)
	if err := s.AddFK("b", "fk", "a", "k"); err != nil {
		t.Fatal(err)
	}
	if want := (FKEdge{Child: "b", ChildCol: "fk", Parent: "a", ParentCol: "k"}); len(s.Edges) != 1 || s.Edges[0] != want {
		t.Fatalf("edges = %+v, want [%+v]", s.Edges, want)
	}

	for _, bad := range []func() error{
		func() error { return s.AddFK("zzz", "fk", "a", "k") },
		func() error { return s.AddFK("b", "nope", "a", "k") },
		func() error { return s.AddFK("b", "fk", "a", "nope") },
	} {
		if bad() == nil {
			t.Error("bad FK should be an error")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustAddFK on a bad edge should panic")
			}
		}()
		s.MustAddFK("zzz", "fk", "a", "k")
	}()
}
