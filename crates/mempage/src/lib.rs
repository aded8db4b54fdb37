//! Paged shared-memory substrate for the `adsm` DSM.
//!
//! Real page-based software DSMs (TreadMarks, CVM, Munin) detect shared
//! accesses with the hardware MMU: pages are `mprotect`ed and the SIGSEGV
//! handler runs the coherence protocol. Driving the MMU from Rust is
//! unsafe and unportable, so this crate provides the **software
//! equivalent**: every page of the simulated shared address space carries
//! [`AccessRights`], every typed access checks them, and a denied access
//! surfaces as a [`PageFault`] value which the protocol layer handles
//! exactly as a signal handler would.
//!
//! The crate also implements the MW-protocol *twinning and diffing*
//! machinery: a [`Diff`] records the 32-bit words of a page that changed
//! relative to its twin — held as per-block word masks plus the packed
//! words, and sized on the wire as the run-length encoding described in
//! the TreadMarks papers.
//!
//! # Examples
//!
//! ```
//! use adsm_mempage::{Diff, PAGE_SIZE};
//!
//! let twin = vec![0u8; PAGE_SIZE];
//! let mut page = twin.clone();
//! page[100..104].copy_from_slice(&7u32.to_le_bytes());
//!
//! let diff = Diff::encode(&twin, &page);
//! assert_eq!(diff.modified_bytes(), 4);
//!
//! let mut other = vec![0u8; PAGE_SIZE];
//! diff.apply(&mut other);
//! assert_eq!(other, page);
//! ```

mod diff;
mod memory;
mod page;
mod pod;
mod pool;

pub use diff::Diff;
#[doc(hidden)]
pub use diff::DiffKernel;
pub use memory::{AccessRights, FaultKind, PageFault, PagedMemory};
pub use page::{page_count, page_of, page_span, PageId, PAGE_SIZE, WORD_SIZE};
pub use pod::Pod;
pub use pool::{PageBuf, PagePool};
