//go:build !linux

package storage

// syncCost is sync_linux.go's function for every other platform.
func syncCost(pages float64) bool {
	return pages == 0 // want floateq, off linux
}
