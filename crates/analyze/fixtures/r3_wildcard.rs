//! Fixture: deliberately violates R3 (`wildcard-match`). A `_ =>` arm in a
//! match over a protocol message enum silently drops new variants.

/// A stand-in for a protocol message enum.
pub enum DownMsg {
    /// A rate on offer.
    Proposal(u64),
    /// End of stream.
    Eof,
    /// Tear-down.
    Shutdown,
}

/// Routes a message, dropping every variant but one.
pub fn route(msg: DownMsg) -> &'static str {
    match msg {
        DownMsg::Proposal(_) => "propose",
        _ => "ignored", // swallows Eof, Shutdown, and every future variant
    }
}

/// Drops one variant: a wildcard all the same.
pub fn route_all_but_one(msg: DownMsg) -> &'static str {
    match msg {
        DownMsg::Proposal(_) => "propose",
        DownMsg::Eof => "end",
        _ => "ignored", // swallows Shutdown and every future variant
    }
}

/// Wildcards over plain data are allowed: only enum matches are guarded.
pub fn fine(n: u32) -> &'static str {
    match n {
        0 => "zero",
        _ => "many", // NOT reported
    }
}
