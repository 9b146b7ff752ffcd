//! CPU time, which unlike wall time leaves out the intervals the host
//! steals from a virtual CPU and the time spent waiting for I/O or a
//! wake-up. The benchmark gates on CPU cost per operation because wall
//! times on a shared virtual machine swing with its neighbours' load.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux clock ids (`<linux/time.h>`).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads CPU clocks the 64-bit Linux way");

fn read(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked above) for the whole call, and
    // clock_gettime writes nothing but that struct.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time used so far by every thread of this process, including
/// threads that have ended, in nanoseconds.
pub fn process_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time used so far by the calling thread, in nanoseconds.
pub fn thread_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_not_with_sleep() {
        let (p0, t0) = (process_ns(), thread_ns());
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_ns() - t0;
        let mut x = 0u64;
        let t1 = thread_ns();
        while thread_ns() - t1 < 20_000_000 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(slept < 10_000_000, "sleeping cost {slept} ns of CPU");
        assert!(process_ns() - p0 >= 20_000_000);
    }
}
