//! CPU placement. The daemon gets the first half of the CPUs this process
//! may run on and the load generator the second half, as on the machine
//! the paper measures, where compute nodes and the I/O node share no
//! core. Left to the scheduler, a client and the handler thread serving it
//! sometimes share a core (a forwarded call costs a context switch) and
//! sometimes do not (it costs a cross-core wake-up); which of the two a
//! run gets changes its small-call throughput by more than 2x.

use std::ffi::{c_int, c_ulong};
use std::io;

/// The kernel's `cpu_set_t`: 1024 bits.
pub type CpuMask = [c_ulong; 1024 / c_ulong::BITS as usize];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
}

fn mask_of(cpus: &[usize]) -> CpuMask {
    let mut mask: CpuMask = [0; 1024 / c_ulong::BITS as usize];
    for &cpu in cpus {
        mask[cpu / c_ulong::BITS as usize] |= 1 << (cpu % c_ulong::BITS as usize);
    }
    mask
}

/// Restrict the calling thread (and every thread it later spawns) to
/// `mask`. One system call on plain integers: also usable between `fork`
/// and `exec`.
pub fn pin(mask: &CpuMask) -> io::Result<()> {
    // SAFETY: `mask` points to `size_of::<CpuMask>()` readable bytes for
    // the duration of the call, which only reads them.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The CPUs the calling thread may run on.
fn allowed() -> io::Result<Vec<usize>> {
    let mut mask: CpuMask = [0; 1024 / c_ulong::BITS as usize];
    // SAFETY: `mask` is `size_of::<CpuMask>()` writable bytes, which is
    // all the call may write.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..1024)
        .filter(|cpu| mask[cpu / c_ulong::BITS as usize] >> (cpu % c_ulong::BITS as usize) & 1 == 1)
        .collect())
}

/// Which CPUs run the daemon (and the server side of the ceiling probes)
/// and which the load generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    pub daemon: Vec<usize>,
    pub loadgen: Vec<usize>,
}

impl Split {
    /// Halve `cpus`; with a single CPU both sides share it.
    pub fn of(cpus: &[usize]) -> Split {
        let (daemon, loadgen) = cpus.split_at(cpus.len() / 2);
        Split {
            daemon: if daemon.is_empty() { cpus } else { daemon }.to_vec(),
            loadgen: loadgen.to_vec(),
        }
    }

    pub fn detect() -> io::Result<Split> {
        Ok(Split::of(&allowed()?))
    }

    pub fn daemon_mask(&self) -> CpuMask {
        mask_of(&self.daemon)
    }

    pub fn loadgen_mask(&self) -> CpuMask {
        mask_of(&self.loadgen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halves_and_degenerates() {
        let s = Split::of(&[0, 1]);
        assert_eq!((s.daemon, s.loadgen), (vec![0], vec![1]));
        let s = Split::of(&[2, 3, 6, 7, 9]);
        assert_eq!((s.daemon, s.loadgen), (vec![2, 3], vec![6, 7, 9]));
        let s = Split::of(&[5]);
        assert_eq!((s.daemon, s.loadgen), (vec![5], vec![5]));
    }

    #[test]
    fn masks_set_the_right_bits() {
        let m = mask_of(&[0, 3, 64, 1023]);
        assert_eq!(m[0], 0b1001);
        assert_eq!(m[1], 1);
        assert_eq!(m[15], 1 << 63);
    }

    #[test]
    fn pinning_to_the_current_set_is_allowed() {
        let cpus = allowed().unwrap();
        assert!(!cpus.is_empty());
        pin(&mask_of(&cpus)).unwrap();
        assert_eq!(allowed().unwrap(), cpus);
    }
}
