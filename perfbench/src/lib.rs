//! The homc benchmark's in-process half: the suite dump that seeds the
//! generated inputs, the timed CEGAR-loop [`replica`], and the traced
//! per-layer [`sweep`]. The end-to-end half, which times real `homc`
//! processes, is `run.py` beside this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replica;
pub mod sweep;
