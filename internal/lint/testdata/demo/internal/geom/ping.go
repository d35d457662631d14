package geom

import "context"

// Ping and PingContext are a function pair with a Context variant, for
// the ctxprop fixture in internal/server to call across packages.
func Ping() int { return 1 }

// PingContext is the cancellable variant.
func PingContext(ctx context.Context) int {
	_ = ctx
	return 1
}
