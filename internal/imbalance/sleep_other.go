//go:build !linux

package imbalance

import "time"

// sleep blocks for d. The millisecond grid sleep_linux.go avoids comes from
// Linux's epoll timeout; elsewhere the runtime timer is used as is.
func sleep(d time.Duration) { time.Sleep(d) }
