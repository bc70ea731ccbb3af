//! The run-checkpoint layout: the one module that knows which
//! components a checkpoint of a running simulation holds, and in what
//! order. [`JobRun`](crate::JobRun) (campaign jobs) and `dramctrl run
//! --checkpoint/--restore` both go through this pair, so the two can
//! never disagree about the bytes.

use dramctrl_kernel::fsio::write_atomic;
use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_traffic::TestRun;
use std::io;
use std::path::Path;

/// Writes a run checkpoint atomically to `path`: the `fp` header, then
/// the tester run, the traffic generator and the controller.
///
/// # Errors
/// I/O errors from the atomic write.
pub fn save_checkpoint(
    path: &Path,
    fp: u64,
    run: &TestRun,
    gen: &(impl SnapState + ?Sized),
    ctrl: &(impl SnapState + ?Sized),
) -> io::Result<()> {
    let mut w = SnapWriter::new(fp);
    run.save_state(&mut w);
    gen.save_state(&mut w);
    ctrl.save_state(&mut w);
    write_atomic(path, w.into_bytes())
}

/// Restores `(run, gen, ctrl)` from the bytes [`save_checkpoint`] wrote.
///
/// # Errors
/// A checkpoint stamped with a fingerprint other than `fp`, torn or
/// corrupt component state, or bytes left over after the controller.
pub fn restore_checkpoint(
    bytes: &[u8],
    fp: u64,
    run: &mut TestRun,
    gen: &mut (impl SnapState + ?Sized),
    ctrl: &mut (impl SnapState + ?Sized),
) -> Result<(), SnapError> {
    let mut r = SnapReader::new(bytes, fp)?;
    run.restore_state(&mut r)?;
    gen.restore_state(&mut r)?;
    ctrl.restore_state(&mut r)?;
    if r.is_exhausted() {
        return Ok(());
    }
    let why = "snapshot has trailing bytes after the controller state";
    Err(SnapError::Corrupt(why.into()))
}
