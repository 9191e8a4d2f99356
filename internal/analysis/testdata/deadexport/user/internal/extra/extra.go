// Package extra belongs to the nested module: the analyzers never report
// on it, so its dead export goes unflagged.
package extra

// Live is called by the nested module's main.
func Live() int { return 1 }

// NestedDead has no referrer, but the nested module is only a referrer.
func NestedDead() int { return 2 }
