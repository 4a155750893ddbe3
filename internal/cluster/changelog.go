package cluster

import "github.com/rex-data/rex/internal/types"

// ChangeLog is one table's accepted changes, kept folded near their net
// effect (insert+delete annihilation, replace-chain folding) so that a
// replay of it stays bounded by the net change under churn. It is not
// safe for concurrent use: callers hold their own lock.
type ChangeLog struct {
	keyCol    int
	deltas    []types.Delta
	sinceFold int
}

// ChangeLogFoldEvery is the raw-append count after which a log refolds.
// Folding is O(appends since last fold + live entries), so the amortized
// cost per append is O(1) while the retained length stays within one
// threshold of the net change.
const ChangeLogFoldEvery = 64

// NewChangeLog returns an empty log whose deltas fold by column keyCol.
func NewChangeLog(keyCol int) *ChangeLog { return &ChangeLog{keyCol: keyCol} }

// Append records ds, refolding once the threshold of raw appends has
// accumulated.
func (l *ChangeLog) Append(ds []types.Delta) {
	l.deltas = append(l.deltas, ds...)
	l.sinceFold += len(ds)
	if l.sinceFold >= ChangeLogFoldEvery {
		l.fold()
	}
}

// Net folds the log and returns its net effect. The slice is the log's
// own and stays valid until the next Append.
func (l *ChangeLog) Net() []types.Delta {
	if l.sinceFold > 0 {
		l.fold()
	}
	return l.deltas
}

// Len reports the retained delta count.
func (l *ChangeLog) Len() int { return len(l.deltas) }

// fold compacts the log through the shuffle compactor's same-key rules.
func (l *ChangeLog) fold() {
	key := l.keyCol
	c := NewCompactor(func(t types.Tuple) types.Value {
		if key < len(t) {
			return t[key]
		}
		return nil
	}, nil)
	for _, d := range l.deltas {
		c.Add(d)
	}
	l.deltas = c.Drain()
	l.sinceFold = 0
}
