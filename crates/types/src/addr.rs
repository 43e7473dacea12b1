//! Strongly-typed addresses.
//!
//! Virtual and physical addresses are distinct newtypes so that a page-table
//! walk result can never be confused with the virtual address that requested
//! it. Cache-block arithmetic lives on [`BlockAddr`].

use crate::page::PageSize;

/// log2 of the cache block size: 64-byte blocks throughout, as in the paper.
pub const BLOCK_SHIFT: u32 = 6;
/// Cache block size in bytes.
pub const BLOCK_BYTES: u64 = 1 << BLOCK_SHIFT;

/// A virtual address in the simulated machine.
///
/// # Examples
///
/// ```
/// use itpx_types::{VirtAddr, PageSize};
/// let va = VirtAddr::new(0xdead_beef);
/// assert_eq!(va.page_offset(PageSize::Base4K), 0xeef);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

/// A physical address in the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

/// A virtual page number (page-size dependent; produced by
/// [`VirtAddr::vpn`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

/// A physical cache-block address: a [`PhysAddr`] with the low
/// [`BLOCK_SHIFT`] bits cleared. This is the unit caches operate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl VirtAddr {
    /// Creates a virtual address.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The virtual page number of this address for the given page size.
    #[inline]
    pub const fn vpn(self, size: PageSize) -> Vpn {
        Vpn(self.0 >> size.shift())
    }

    /// Offset of this address within its page.
    #[inline]
    pub const fn page_offset(self, size: PageSize) -> u64 {
        self.0 & (size.bytes() - 1)
    }

    /// Returns the address advanced by `bytes`.
    #[inline]
    #[must_use]
    pub const fn offset(self, bytes: u64) -> Self {
        Self(self.0.wrapping_add(bytes))
    }
}

impl PhysAddr {
    /// Creates a physical address.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The cache block containing this address.
    #[inline]
    pub const fn block(self) -> BlockAddr {
        BlockAddr(self.0 >> BLOCK_SHIFT << BLOCK_SHIFT)
    }

    /// The physical frame number for the given page size.
    pub const fn pfn(self, size: PageSize) -> u64 {
        self.0 >> size.shift()
    }

    /// Returns the address advanced by `bytes`.
    #[inline]
    #[must_use]
    pub const fn offset(self, bytes: u64) -> Self {
        Self(self.0.wrapping_add(bytes))
    }
}

impl BlockAddr {
    /// Creates a block address from a raw physical address, aligning down.
    pub const fn containing(pa: PhysAddr) -> Self {
        pa.block()
    }

    /// The first byte of the block as a full physical address.
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0)
    }

    /// Block index (address divided by block size); useful for set hashing.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0 >> BLOCK_SHIFT
    }
}

impl Vpn {
    /// Reconstructs the base virtual address of this page.
    pub const fn base(self, size: PageSize) -> VirtAddr {
        VirtAddr(self.0 << size.shift())
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

impl From<u64> for PhysAddr {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

impl std::fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{:#x}", self.0)
    }
}

impl std::fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{:#x}", self.0)
    }
}

impl std::fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{:#x}", self.0)
    }
}

impl std::fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

impl std::fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_and_offset_roundtrip_4k() {
        let va = VirtAddr::new(0x1234_5678);
        let vpn = va.vpn(PageSize::Base4K);
        let off = va.page_offset(PageSize::Base4K);
        assert_eq!(vpn.base(PageSize::Base4K).0 + off, va.0);
    }

    #[test]
    fn vpn_and_offset_roundtrip_2m() {
        let va = VirtAddr::new(0x0dea_dbee_f123);
        let vpn = va.vpn(PageSize::Huge2M);
        let off = va.page_offset(PageSize::Huge2M);
        assert_eq!(vpn.base(PageSize::Huge2M).0 + off, va.0);
        assert!(off < PageSize::Huge2M.bytes());
    }

    #[test]
    fn block_alignment() {
        let pa = PhysAddr::new(0x1000 + 63);
        assert_eq!(pa.block().0, 0x1000);
        assert_eq!(pa.block().base().0 % BLOCK_BYTES, 0);
        let pa2 = PhysAddr::new(0x1000 + 64);
        assert_ne!(pa.block(), pa2.block());
    }

    #[test]
    fn block_index_is_dense() {
        assert_eq!(BlockAddr(0).index(), 0);
        assert_eq!(BlockAddr(64).index(), 1);
        assert_eq!(BlockAddr(128).index(), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(VirtAddr::new(0x10).to_string(), "v0x10");
        assert_eq!(PhysAddr::new(0x10).to_string(), "p0x10");
    }
}
