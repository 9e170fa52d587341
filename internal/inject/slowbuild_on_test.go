//go:build race || failatomic_portable_gls

package inject_test

// slowBuild reports a build whose runtime slows campaigns severalfold (the
// race detector, or the portable goroutine-id session binding), so the
// heaviest sweeps trim their app set.
const slowBuild = true
