package imbalance

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// clockMonotonic is CLOCK_MONOTONIC, which package syscall does not export.
const clockMonotonic = 1

// timerFile is a non-blocking timerfd in the runtime's network poller: a
// goroutine reading it parks as on any file, and epoll returns at the timer's
// nanosecond expiry instead of on its own whole-millisecond timeout grid.
type timerFile struct {
	// fd is kept from creation: (*os.File).Fd switches the file to blocking
	// mode, and the read would then hold a thread and its P in read(2).
	fd   uintptr
	file *os.File
	spec [2]syscall.Timespec // struct itimerspec: it_interval, it_value
	buf  [8]byte             // the expiry count
}

var timerFiles sync.Pool

// sleep blocks for d, which must be positive: a zero it_value disarms the
// timer, and the read would never return. A timerfd that cannot be created,
// armed or read is closed, and the sleep falls back to time.Sleep.
func sleep(d time.Duration) {
	t, _ := timerFiles.Get().(*timerFile)
	if t == nil {
		fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
		if errno != 0 {
			time.Sleep(d)
			return
		}
		t = &timerFile{fd: fd, file: os.NewFile(fd, "timerfd")}
	}
	if !t.wait(d) {
		t.file.Close()
		time.Sleep(d)
		return
	}
	timerFiles.Put(t)
}

// wait arms the timer to expire once, d from now, and reads the expiry.
func (t *timerFile) wait(d time.Duration) bool {
	t.spec[1] = syscall.NsecToTimespec(int64(d))
	_, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&t.spec)), 0, 0, 0)
	if errno != 0 {
		return false
	}
	n, err := t.file.Read(t.buf[:])
	return err == nil && n == len(t.buf)
}
