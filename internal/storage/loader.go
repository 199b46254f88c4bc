package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/value"
)

// Dict dictionary-encodes strings to dense int64 codes, the bridge between
// string-typed source data and the integer-only engine core. It is an alias
// for value.Dict: safe for concurrent readers, with Code/Merge taking the
// write lock (single-writer appends while filters and result decoding read
// concurrently).
type Dict = value.Dict

// NewDict returns an empty dictionary.
func NewDict() *Dict { return value.NewDict() }

// CSVOptions configures LoadCSV.
type CSVOptions struct {
	// Header skips the first record (and, when the relation has no columns
	// configured, could be used to derive them — the loader requires the
	// relation schema, so Header only controls skipping).
	Header bool
	Comma  rune
	// Dicts maps column names to dictionaries for non-integer columns;
	// it overrides (and installs into) the catalog's per-column Dict. String
	// columns declared in the relation schema use their catalog Dict when no
	// override is present; values in plain int64 columns must parse.
	Dicts map[string]*Dict
}

// NullField reports whether a CSV field denotes SQL NULL: the empty string
// or the conventional \N marker.
func NullField(f string) bool { return f == "" || f == `\N` }

// LoadCSV reads rows into a new table with rel's schema. Each record must
// have exactly one field per relation column, in schema order. Columns
// typed String in the catalog are dictionary-encoded; on nullable columns
// the empty string and `\N` load as NULL (value.NullCode). Every int64
// column rejects the literal math.MinInt64, which is reserved as the NULL
// sentinel: the engine reads it as NULL whatever the column's nullability.
func LoadCSV(rel *catalog.Relation, r io.Reader, opts CSVOptions) (*Table, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.ReuseRecord = true

	cols := make([][]int64, len(rel.Columns))
	dicts := make([]*Dict, len(rel.Columns))
	for i := range rel.Columns {
		c := &rel.Columns[i]
		if d := opts.Dicts[c.Name]; d != nil {
			dicts[i] = d
			if c.Type == value.String && c.Dict == nil {
				c.Dict = d
			}
		} else if c.Type == value.String {
			if c.Dict == nil {
				c.Dict = value.NewDict()
			}
			dicts[i] = c.Dict
		}
	}

	first := true
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("storage: csv: %w", err)
		}
		if first && opts.Header {
			first = false
			continue
		}
		first = false
		if len(rec) != len(rel.Columns) {
			return nil, fmt.Errorf("storage: csv row %d has %d fields, want %d", row, len(rec), len(rel.Columns))
		}
		for i, f := range rec {
			var v int64
			switch {
			case rel.Columns[i].Nullable && NullField(f):
				v = value.NullCode
			case dicts[i] != nil:
				v = dicts[i].Code(f)
			default:
				v, err = strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("storage: csv row %d column %s: %q is not an integer (use a Dict for string columns)", row, rel.Columns[i].Name, f)
				}
				if v == value.NullCode {
					return nil, fmt.Errorf("storage: csv row %d column %s: %d is reserved as the NULL sentinel", row, rel.Columns[i].Name, v)
				}
			}
			cols[i] = append(cols[i], v)
		}
		row++
	}
	return FromColumns(rel, cols...)
}
