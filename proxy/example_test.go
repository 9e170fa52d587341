package proxy_test

import (
	"context"
	"fmt"

	"failatomic"
	"failatomic/proxy"
)

// meter is "compiled third-party code" with a count-before-validate bug.
type meter struct {
	Reading int
}

// Advance commits before validating.
func (m *meter) Advance(by int) {
	m.Reading += by
	if by < 0 {
		failatomic.Throw(failatomic.IllegalArgument, "meter.Advance", "negative step")
	}
}

// Example shows the no-source-access workflow: wrap, detect, mask.
func Example() {
	// Detect over proxies: every run wraps a fresh meter.
	result, err := failatomic.Detect(context.Background(), &failatomic.Program{
		Name:     "meter",
		Registry: failatomic.NewRegistry(),
		Run: func() {
			p, _ := proxy.NewGenerator().Wrap(&meter{})
			_, _ = p.Invoke("Advance", -3)
		},
	}, failatomic.DetectOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("non-atomic:", result.NonAtomicMethods())

	// Mask exactly what was found.
	protection, err := failatomic.Protect(result.NonAtomicMethods(), failatomic.ProtectOptions{})
	if err != nil {
		panic(err)
	}
	defer protection.Close()
	m := &meter{Reading: 10}
	p, _ := proxy.NewGenerator().Wrap(m)
	_, err = p.Invoke("Advance", -3)
	fmt.Println("masked call error:", err != nil)
	fmt.Println("reading after rollback:", m.Reading)
	// Output:
	// non-atomic: [meter.Advance]
	// masked call error: true
	// reading after rollback: 10
}
