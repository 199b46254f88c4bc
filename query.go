package roulette

import (
	"fmt"
	"math"
	"time"

	"github.com/roulette-db/roulette/internal/query"
)

// Query is an SPJ query under construction. Build it fluently, then pass it
// to Engine.ExecuteBatch; construction errors surface at execution.
type Query struct {
	q   query.Query
	err error

	// Streaming admission metadata (see Stream.Submit); ignored in batch
	// mode, where the whole batch runs to completion together.
	deadline time.Duration
}

// NewQuery starts a query with a user-facing tag.
func NewQuery(tag string) *Query {
	return &Query{q: query.Query{Tag: tag}}
}

func (q *Query) fail(format string, args ...any) *Query {
	if q.err == nil {
		q.err = fmt.Errorf(format, args...)
	}
	return q
}

// From adds a relation under its own name as alias.
func (q *Query) From(table string) *Query { return q.FromAs(table, table) }

// FromAs adds a relation under an explicit alias (required for self-joins).
func (q *Query) FromAs(table, alias string) *Query {
	q.q.Rels = append(q.q.Rels, query.RelRef{Table: table, Alias: alias})
	return q
}

// Join adds the equi-join predicate leftAlias.leftCol = rightAlias.rightCol.
// Each query's join graph must be connected; cycle-closing joins are
// evaluated as residual predicates.
func (q *Query) Join(leftAlias, leftCol, rightAlias, rightCol string) *Query {
	q.q.Joins = append(q.q.Joins, query.Join{
		LeftAlias: leftAlias, LeftCol: leftCol,
		RightAlias: rightAlias, RightCol: rightCol,
	})
	return q
}

// Between restricts alias.col to the inclusive range [lo, hi].
func (q *Query) Between(alias, col string, lo, hi int64) *Query {
	if lo > hi {
		return q.fail("roulette: Between(%s.%s, %d, %d): empty range", alias, col, lo, hi)
	}
	q.q.Filters = append(q.q.Filters, query.Filter{Alias: alias, Col: col, Lo: lo, Hi: hi})
	return q
}

// Eq restricts alias.col to exactly v.
func (q *Query) Eq(alias, col string, v int64) *Query { return q.Between(alias, col, v, v) }

// Lt restricts alias.col to values < v.
func (q *Query) Lt(alias, col string, v int64) *Query {
	return q.Between(alias, col, math.MinInt64, v-1)
}

// Le restricts alias.col to values <= v.
func (q *Query) Le(alias, col string, v int64) *Query {
	return q.Between(alias, col, math.MinInt64, v)
}

// Gt restricts alias.col to values > v.
func (q *Query) Gt(alias, col string, v int64) *Query {
	return q.Between(alias, col, v+1, math.MaxInt64)
}

// Ge restricts alias.col to values >= v.
func (q *Query) Ge(alias, col string, v int64) *Query {
	return q.Between(alias, col, v, math.MaxInt64)
}

// EqString restricts the string column alias.col to exactly s. The column
// must be dictionary-encoded (created via StrCol or a typed loader);
// execution fails with a type-mismatch error on an int64 column.
func (q *Query) EqString(alias, col, s string) *Query { return q.InStrings(alias, col, s) }

// InStrings restricts the string column alias.col to any of the listed
// values (SQL IN). NULL never matches.
func (q *Query) InStrings(alias, col string, vals ...string) *Query {
	if len(vals) == 0 {
		return q.fail("roulette: InStrings(%s.%s): empty value list", alias, col)
	}
	q.q.Filters = append(q.q.Filters, query.Filter{
		Alias: alias, Col: col, Kind: query.KindStrings, Strs: vals,
	})
	return q
}

// IsNull keeps only rows where alias.col is NULL.
func (q *Query) IsNull(alias, col string) *Query {
	q.q.Filters = append(q.q.Filters, query.Filter{Alias: alias, Col: col, Kind: query.KindIsNull})
	return q
}

// IsNotNull keeps only rows where alias.col is not NULL.
func (q *Query) IsNotNull(alias, col string) *Query {
	q.q.Filters = append(q.q.Filters, query.Filter{Alias: alias, Col: col, Kind: query.KindIsNotNull})
	return q
}

// CountStar makes the query's consumer COUNT(*) (the default).
func (q *Query) CountStar() *Query {
	q.q.Agg = query.Agg{Kind: query.AggCount}
	return q
}

// Sum makes the consumer SUM(alias.col).
func (q *Query) Sum(alias, col string) *Query { return q.agg(query.AggSum, alias, col) }

// Min makes the consumer MIN(alias.col).
func (q *Query) Min(alias, col string) *Query { return q.agg(query.AggMin, alias, col) }

// Max makes the consumer MAX(alias.col).
func (q *Query) Max(alias, col string) *Query { return q.agg(query.AggMax, alias, col) }

// Avg makes the consumer AVG(alias.col) (integer division).
func (q *Query) Avg(alias, col string) *Query { return q.agg(query.AggAvg, alias, col) }

func (q *Query) agg(kind query.AggKind, alias, col string) *Query {
	q.q.Agg.Kind = kind
	q.q.Agg.Alias, q.q.Agg.Col = alias, col
	return q
}

// GroupBy groups the aggregate by alias.col.
func (q *Query) GroupBy(alias, col string) *Query {
	q.q.Agg.GroupByAlias, q.q.Agg.GroupByCol = alias, col
	return q
}

// OrderByKey sorts grouped output by group key. RouLette itself never
// preserves interesting orders, so the host consumer adds the sort — this
// mirrors the paper's plan transformation.
func (q *Query) OrderByKey() *Query {
	q.q.Agg.Sorted = true
	return q
}

// Tag returns the query's tag.
func (q *Query) Tag() string { return q.q.Tag }

// WithTag renames the query. Results carry the tag; ParseSQL assigns
// positional sql-N tags, which collide when statements from separate
// parses meet in one stream.
//
// In streams with admission control, the tag also keys the query's tenant:
// the prefix before the first '/' ("gold/q17" belongs to tenant "gold", a
// bare "q17" to tenant "q17"). Tenants get rate limits and per-tenant SLO
// metrics; they do not change the order in which scans run.
func (q *Query) WithTag(tag string) *Query {
	q.q.Tag = tag
	return q
}

// WithDeadline gives the query a completion deadline, measured from the
// moment it is submitted to a stream. A query whose estimated cost already
// exceeds the deadline is shed at Submit with ErrDeadlineShed; one that is
// admitted runs in the stream's scan order like any other, and is shed
// mid-flight (retiring with a partial count and ErrDeadlineShed) if the
// deadline passes first. 0 means no deadline. Batch execution ignores
// per-query deadlines; bound a whole batch with a context deadline on
// ExecuteBatchContext.
func (q *Query) WithDeadline(d time.Duration) *Query {
	q.deadline = d
	return q
}
