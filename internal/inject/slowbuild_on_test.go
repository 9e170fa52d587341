//go:build race

package inject_test

// slowBuild reports a build whose runtime slows campaigns severalfold (the
// race detector), so the heaviest sweeps trim their app set.
const slowBuild = true
