//! Memory requests and responses.
//!
//! The simulators exchange transaction-level packets, mirroring gem5's port
//! interface (paper Section II-F): a master issues a [`MemRequest`] and, for
//! reads, eventually receives a [`MemResponse`]. Writes are acknowledged
//! early by the controller (Section II-A), so masters generally treat a
//! write as complete once it is accepted.

use dramctrl_kernel::Tick;

/// Unique identifier of a request, assigned by the issuing master.
///
/// Responses carry the id of the request they answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReqId(pub u64);

impl std::fmt::Display for ReqId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// The command carried by a memory packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemCmd {
    /// Read `size` bytes from `addr`.
    Read,
    /// Write `size` bytes to `addr`.
    Write,
}

impl MemCmd {
    /// Whether this is a read.
    pub fn is_read(self) -> bool {
        matches!(self, MemCmd::Read)
    }

    /// Whether this is a write.
    pub fn is_write(self) -> bool {
        matches!(self, MemCmd::Write)
    }
}

/// A transaction-level memory request.
///
/// The request does not carry data — the simulators model timing and
/// resource contention, not values, exactly as the paper's controller does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Master-assigned identifier, echoed in the response.
    pub id: ReqId,
    /// Read or write.
    pub cmd: MemCmd,
    /// Physical byte address.
    pub addr: u64,
    /// Size in bytes. May be smaller or larger than the DRAM burst size;
    /// the controller chops/merges as needed (Section II-A).
    pub size: u32,
    /// Index of the issuing master port, used by interconnects to route the
    /// response back.
    pub source: u16,
}

impl MemRequest {
    /// Creates a read request.
    pub fn read(id: ReqId, addr: u64, size: u32) -> Self {
        Self {
            id,
            cmd: MemCmd::Read,
            addr,
            size,
            source: 0,
        }
    }

    /// Creates a write request.
    pub fn write(id: ReqId, addr: u64, size: u32) -> Self {
        Self {
            id,
            cmd: MemCmd::Write,
            addr,
            size,
            source: 0,
        }
    }

    /// Returns a copy tagged with the given source port.
    pub fn with_source(mut self, source: u16) -> Self {
        self.source = source;
        self
    }
}

/// A transaction-level memory response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// Identifier of the request being answered.
    pub id: ReqId,
    /// The original command.
    pub cmd: MemCmd,
    /// The original address.
    pub addr: u64,
    /// Source port of the original request (for routing).
    pub source: u16,
    /// Tick at which the response leaves the responder.
    pub ready_at: Tick,
}

impl MemResponse {
    /// Builds the response answering `req` at time `ready_at`.
    pub fn to(req: &MemRequest, ready_at: Tick) -> Self {
        Self {
            id: req.id,
            cmd: req.cmd,
            addr: req.addr,
            source: req.source,
            ready_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_command() {
        let r = MemRequest::read(ReqId(1), 0x40, 64);
        assert!(r.cmd.is_read());
        assert!(!r.cmd.is_write());
        let w = MemRequest::write(ReqId(2), 0x80, 32);
        assert!(w.cmd.is_write());
    }

    #[test]
    fn response_echoes_request() {
        let r = MemRequest::read(ReqId(7), 0x1000, 64).with_source(3);
        let resp = MemResponse::to(&r, 42);
        assert_eq!(resp.id, ReqId(7));
        assert_eq!(resp.addr, 0x1000);
        assert_eq!(resp.source, 3);
        assert_eq!(resp.ready_at, 42);
    }

    #[test]
    fn req_id_displays() {
        assert_eq!(ReqId(9).to_string(), "req#9");
    }
}
