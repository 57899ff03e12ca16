//! Zero-dependency kernel bindings for the reactor: a readiness poller.
//!
//! On Linux x86_64/aarch64 this is real `epoll`, reached through raw
//! `syscall`/`svc` instructions — the repo vendors no `libc`, and the
//! three calls `faild` needs (`epoll_create1`, `epoll_ctl`,
//! `epoll_pwait`) have a stable ABI that fits in a few lines of inline
//! assembly. Everything `unsafe` lives in this module; the rest of the
//! crate keeps `deny(unsafe_code)`.
//!
//! On other targets a portable fallback ticks every couple of
//! milliseconds and reports every registered descriptor as ready.
//! Spurious readiness is harmless — all reactor I/O is non-blocking —
//! but idle connections cost a periodic scan there instead of zero,
//! so the fallback is a correctness bridge, not the design point.
#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Readable — or in an error/hangup state, which a non-blocking
    /// `read` surfaces as EOF or an error.
    pub readable: bool,
    /// Writable (or errored; a `write` attempt surfaces it).
    pub writable: bool,
}

/// Readiness poller: register descriptors with a token and interest
/// set, then [`Poller::wait`] for events. Level-triggered.
#[derive(Debug)]
pub(crate) struct Poller {
    inner: imp::Poller,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: imp::Poller::new()?,
        })
    }

    pub(crate) fn add(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.inner.ctl(imp::Op::Add, fd, token, read, write)
    }

    pub(crate) fn modify(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.inner.ctl(imp::Op::Modify, fd, token, read, write)
    }

    pub(crate) fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.inner.ctl(imp::Op::Remove, fd, 0, false, false)
    }

    /// Blocks until at least one registered descriptor is ready (or
    /// `timeout_ms` elapses; -1 waits forever), filling `events`. A
    /// signal interruption returns an empty set instead of an error.
    pub(crate) fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        events.clear();
        self.inner.wait(events, timeout_ms)
    }
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod imp {
    use super::Event;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLL_CLOEXEC: usize = 0x80000;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 291;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
    }

    // The kernel packs epoll_event on x86_64 only (12 bytes); every
    // other architecture uses natural alignment (16 bytes).
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack),
        );
        ret
    }

    /// Raw syscalls return `-errno` on failure.
    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    #[derive(Debug, Clone, Copy)]
    pub(super) enum Op {
        Add,
        Modify,
        Remove,
    }

    #[derive(Debug)]
    pub(super) struct Poller {
        epfd: OwnedFd,
    }

    impl Poller {
        pub(super) fn new() -> io::Result<Poller> {
            let fd = check(unsafe {
                syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0)
            })?;
            // OwnedFd closes the epoll instance on drop.
            Ok(Poller {
                epfd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
            })
        }

        pub(super) fn ctl(
            &self,
            op: Op,
            fd: RawFd,
            token: u64,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            const EPOLL_CTL_ADD: usize = 1;
            const EPOLL_CTL_DEL: usize = 2;
            const EPOLL_CTL_MOD: usize = 3;
            let mut interest = 0u32;
            if read {
                interest |= EPOLLIN;
            }
            if write {
                interest |= EPOLLOUT;
            }
            let event = EpollEvent {
                events: interest,
                data: token,
            };
            let opnum = match op {
                Op::Add => EPOLL_CTL_ADD,
                Op::Modify => EPOLL_CTL_MOD,
                Op::Remove => EPOLL_CTL_DEL,
            };
            check(unsafe {
                syscall6(
                    nr::EPOLL_CTL,
                    self.epfd.as_raw_fd() as usize,
                    opnum,
                    fd as usize,
                    std::ptr::addr_of!(event) as usize,
                    0,
                    0,
                )
            })
            .map(|_| ())
        }

        pub(super) fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            // epoll_pwait with a null sigmask is exactly epoll_wait,
            // and exists on every architecture (aarch64 dropped the
            // unsuffixed call).
            let n = match check(unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.epfd.as_raw_fd() as usize,
                    buf.as_mut_ptr() as usize,
                    buf.len(),
                    timeout_ms as usize,
                    0,
                    8,
                )
            }) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in &buf[..n] {
                let (bits, token) = (ev.events, ev.data);
                events.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod imp {
    use super::Event;
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    #[derive(Debug, Clone, Copy)]
    pub(super) enum Op {
        Add,
        Modify,
        Remove,
    }

    /// Tick-based fallback: every registered descriptor is reported
    /// ready per its interest set each tick. Non-blocking I/O turns
    /// the spurious readiness into cheap `WouldBlock` returns.
    #[derive(Debug)]
    pub(super) struct Poller {
        registered: Mutex<HashMap<RawFd, (u64, bool, bool)>>,
    }

    impl Poller {
        pub(super) fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Mutex::new(HashMap::new()),
            })
        }

        pub(super) fn ctl(
            &self,
            op: Op,
            fd: RawFd,
            token: u64,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            let mut reg = self.registered.lock().unwrap_or_else(|e| e.into_inner());
            match op {
                Op::Add | Op::Modify => {
                    reg.insert(fd, (token, read, write));
                }
                Op::Remove => {
                    reg.remove(&fd);
                }
            }
            Ok(())
        }

        pub(super) fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let tick = Duration::from_millis(2);
            let nap = if timeout_ms < 0 {
                tick
            } else {
                tick.min(Duration::from_millis(timeout_ms as u64))
            };
            std::thread::sleep(nap);
            let reg = self.registered.lock().unwrap_or_else(|e| e.into_inner());
            for (_, &(token, read, write)) in reg.iter() {
                if read || write {
                    events.push(Event {
                        token,
                        readable: read,
                        writable: write,
                    });
                }
            }
            Ok(())
        }
    }
}
