// Package storage implements RouLette's in-memory columnar storage manager.
//
// Tables store typed columns whose physical representation is always
// []int64: plain integers, dictionary codes for string columns (the
// catalog's per-column Dict maps codes back to strings), and value.NullCode
// for NULL cells of nullable columns. Tuples are addressed by virtual IDs
// (vIDs), and operators reconstruct attribute mini-columns on demand (late
// materialization over a PAX-style layout, §3 of the paper). The package
// also provides the circular-scan iterators that RouLette's ingestion uses.
package storage

import (
	"fmt"

	"github.com/roulette-db/roulette/internal/catalog"
)

// Table is an in-memory columnar table.
type Table struct {
	Rel  *catalog.Relation
	cols [][]int64
	rows int
}

// NewTable allocates a table with the relation's schema and rows rows.
func NewTable(rel *catalog.Relation, rows int) *Table {
	t := &Table{Rel: rel, rows: rows}
	t.cols = make([][]int64, len(rel.Columns))
	for i := range t.cols {
		t.cols[i] = make([]int64, rows)
	}
	return t
}

// FromColumns builds a table from pre-built columns, which must all have the
// same length and match the relation's column count. Loaders reach this with
// externally supplied data, so shape mismatches are returned, not panicked.
func FromColumns(rel *catalog.Relation, cols ...[]int64) (*Table, error) {
	if len(cols) != len(rel.Columns) {
		return nil, fmt.Errorf("storage: %s expects %d columns, got %d", rel.Name, len(rel.Columns), len(cols))
	}
	rows := 0
	if len(cols) > 0 {
		rows = len(cols[0])
	}
	for i, c := range cols {
		if len(c) != rows {
			return nil, fmt.Errorf("storage: %s column %d has %d rows, want %d", rel.Name, i, len(c), rows)
		}
	}
	return &Table{Rel: rel, cols: cols, rows: rows}, nil
}

// MustFromColumns is FromColumns, panicking on error (for statically shaped
// setup code and tests).
func MustFromColumns(rel *catalog.Relation, cols ...[]int64) *Table {
	t, err := FromColumns(rel, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// NumRows returns the table's cardinality.
func (t *Table) NumRows() int { return t.rows }

// Col returns the named column; it panics if the column does not exist.
func (t *Table) Col(name string) []int64 {
	i := t.Rel.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("storage: relation %s has no column %s", t.Rel.Name, name))
	}
	return t.cols[i]
}

// ColAt returns the column at schema position i.
func (t *Table) ColAt(i int) []int64 { return t.cols[i] }

// Database maps relation names to tables.
type Database struct {
	Schema *catalog.Schema
	tables map[string]*Table
}

// NewDatabase creates an empty database over schema.
func NewDatabase(schema *catalog.Schema) *Database {
	return &Database{Schema: schema, tables: make(map[string]*Table)}
}

// Put registers a table under its relation name, replacing any previous one.
func (d *Database) Put(t *Table) { d.tables[t.Rel.Name] = t }

// Table returns the named table, or nil.
func (d *Database) Table(name string) *Table { return d.tables[name] }

// MustTable returns the named table; it panics if absent.
func (d *Database) MustTable(name string) *Table {
	t := d.tables[name]
	if t == nil {
		panic(fmt.Sprintf("storage: no table %q", name))
	}
	return t
}

// TableNames returns the registered table names (unordered).
func (d *Database) TableNames() []string {
	out := make([]string, 0, len(d.tables))
	for n := range d.tables {
		out = append(out, n)
	}
	return out
}

// CircularScan iterates over a table's vIDs in fixed-size vectors, wrapping
// around the end (QPipe/Cooperative-Scans style, §3 "Ingestion"). A consumer
// that starts mid-scan still sees every tuple exactly once per revolution.
type CircularScan struct {
	rows int
	vec  int
	pos  int // next vID to hand out
}

// NewCircularScan creates a scan over rows tuples with vectors of vec
// tuples. Vector sizes arrive from session configuration, so a non-positive
// size is reported rather than panicked.
func NewCircularScan(rows, vec int) (*CircularScan, error) {
	if vec <= 0 {
		return nil, fmt.Errorf("storage: vector size must be positive, got %d", vec)
	}
	return &CircularScan{rows: rows, vec: vec}, nil
}

// Pos returns the current scan position (the vID the next vector starts at).
func (s *CircularScan) Pos() int { return s.pos }

// Rows returns the number of tuples in the underlying relation.
func (s *CircularScan) Rows() int { return s.rows }

// Next returns the next vector as a half-open vID range [start, start+n) and
// advances the scan, wrapping to 0 past the end. n can be smaller than the
// vector size only for the final chunk before wrapping; n is 0 only for an
// empty table.
func (s *CircularScan) Next() (start, n int) {
	if s.rows == 0 {
		return 0, 0
	}
	start = s.pos
	n = s.vec
	if start+n > s.rows {
		n = s.rows - start
	}
	s.pos = (start + n) % s.rows
	return start, n
}

// VectorsPerPass returns how many Next calls cover the whole relation once.
func (s *CircularScan) VectorsPerPass() int {
	if s.rows == 0 {
		return 0
	}
	return (s.rows + s.vec - 1) / s.vec
}
