// Package catalog describes schemas: relations, their columns (with logical
// types, nullability, and per-column string dictionaries), and the
// foreign-key topology that workload generators use to draw join subgraphs.
package catalog

import (
	"fmt"

	"github.com/roulette-db/roulette/internal/value"
)

// Column is a named attribute of a relation. Physically every attribute is
// a 64-bit integer (late materialization keeps the engine integer-only, as
// in the paper's columnar prototype); the logical type here says how to
// interpret those integers. String columns hold dense codes into Dict, and
// nullable columns use value.NullCode as the in-band NULL sentinel.
type Column struct {
	Name     string
	Type     value.ColType // Int64 (zero value) or String
	Nullable bool
	// Dict is the column's dictionary; non-nil exactly when Type is String.
	// Cross-relation string joins require both columns to share the SAME
	// *Dict (after a loader-time unification pass), so codes compare
	// directly inside the STeM kernels.
	Dict *value.Dict
}

// Relation is a named table schema.
type Relation struct {
	Name    string
	Columns []Column

	colIdx map[string]int
}

// NewRelation builds a Relation from column names; every column is a plain
// non-nullable int64 attribute. Use NewTypedRelation for string or nullable
// columns.
func NewRelation(name string, cols ...string) *Relation {
	r := &Relation{Name: name, colIdx: make(map[string]int, len(cols))}
	for i, c := range cols {
		r.Columns = append(r.Columns, Column{Name: c})
		r.colIdx[c] = i
	}
	return r
}

// NewTypedRelation builds a Relation from full column descriptors. String
// columns without a dictionary get a fresh one, so the zero-value Column
// descriptor {Name, Type: value.String} is valid; pass an existing Dict to
// share it across relations (required for cross-relation string joins).
func NewTypedRelation(name string, cols ...Column) *Relation {
	r := &Relation{Name: name, colIdx: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Type == value.String && c.Dict == nil {
			c.Dict = value.NewDict()
		}
		r.Columns = append(r.Columns, c)
		r.colIdx[c.Name] = i
	}
	return r
}

// Column returns a pointer to the named column's descriptor, or nil if the
// relation has no such column. The pointer aliases the relation's schema, so
// loaders can install or swap dictionaries in place.
func (r *Relation) Column(name string) *Column {
	i := r.ColIndex(name)
	if i < 0 {
		return nil
	}
	return &r.Columns[i]
}

// ColIndex returns the position of column name, or -1 if absent.
func (r *Relation) ColIndex(name string) int {
	if i, ok := r.colIdx[name]; ok {
		return i
	}
	return -1
}

// HasColumn reports whether the relation has the named column.
func (r *Relation) HasColumn(name string) bool { return r.ColIndex(name) >= 0 }

// FKEdge declares that child.childCol references parent.parentCol. Workload
// generators walk these edges to form join subgraphs (snowflake chains etc.).
type FKEdge struct {
	Child     string
	ChildCol  string
	Parent    string
	ParentCol string
}

// Schema is a set of relations plus their foreign-key topology.
type Schema struct {
	Relations []*Relation
	Edges     []FKEdge

	relIdx map[string]int
}

// NewSchema builds a schema over the given relations. The variadic list is
// static setup code, so duplicates are a programmer-error invariant and
// still panic; use AddRelation directly to handle duplicates gracefully.
func NewSchema(rels ...*Relation) *Schema {
	s := &Schema{relIdx: make(map[string]int, len(rels))}
	for _, r := range rels {
		s.MustAddRelation(r)
	}
	return s
}

// AddRelation registers r; duplicate names are reported, not panicked
// (schemas are built from external inputs, e.g. CSV headers).
func (s *Schema) AddRelation(r *Relation) error {
	if _, dup := s.relIdx[r.Name]; dup {
		return fmt.Errorf("catalog: duplicate relation %q", r.Name)
	}
	s.relIdx[r.Name] = len(s.Relations)
	s.Relations = append(s.Relations, r)
	return nil
}

// MustAddRelation is AddRelation, panicking on error (static schemas).
func (s *Schema) MustAddRelation(r *Relation) {
	if err := s.AddRelation(r); err != nil {
		panic(err)
	}
}

// AddFK registers a foreign-key edge; it reports an error if a referenced
// relation or column does not exist.
func (s *Schema) AddFK(child, childCol, parent, parentCol string) error {
	c := s.Relation(child)
	p := s.Relation(parent)
	if c == nil || p == nil {
		return fmt.Errorf("catalog: FK %s.%s -> %s.%s references unknown relation", child, childCol, parent, parentCol)
	}
	if !c.HasColumn(childCol) || !p.HasColumn(parentCol) {
		return fmt.Errorf("catalog: FK %s.%s -> %s.%s references unknown column", child, childCol, parent, parentCol)
	}
	s.Edges = append(s.Edges, FKEdge{Child: child, ChildCol: childCol, Parent: parent, ParentCol: parentCol})
	return nil
}

// MustAddFK is AddFK, panicking on error (static generator schemas).
func (s *Schema) MustAddFK(child, childCol, parent, parentCol string) {
	if err := s.AddFK(child, childCol, parent, parentCol); err != nil {
		panic(err)
	}
}

// Relation returns the named relation, or nil.
func (s *Schema) Relation(name string) *Relation {
	if i, ok := s.relIdx[name]; ok {
		return s.Relations[i]
	}
	return nil
}
