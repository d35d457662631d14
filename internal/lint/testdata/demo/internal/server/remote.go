package server

import (
	"context"

	"demo/internal/geom"
)

// LookupRemote must not fire: ctxprop looks for a function's Context
// sibling in the package under check only (for a method, on the value it
// is called on), and geom.Ping belongs to another package.
func LookupRemote(ctx context.Context) int {
	_ = ctx
	return geom.Ping()
}
