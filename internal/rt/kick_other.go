//go:build !linux

package rt

import "time"

// kick is a no-op off Linux: Sleep relies on the plain Go timer, whose
// wake-up granularity is whatever the platform's netpoller offers.
type kick struct{}

func (*kick) arm(time.Duration) {}
func (*kick) close()            {}
