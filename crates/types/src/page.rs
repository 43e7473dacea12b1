//! Page sizes.
//!
//! The evaluation uses 4 KiB base pages everywhere and, in Section 6.5, a
//! configurable fraction of the code/data footprint backed by 2 MiB pages.

/// A translation granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum PageSize {
    /// 4 KiB base page (x86-64 level-1 leaf).
    #[default]
    Base4K,
    /// 2 MiB huge page (x86-64 level-2 leaf).
    Huge2M,
}

impl PageSize {
    /// log2 of the page size in bytes.
    #[inline]
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Base4K => 12,
            PageSize::Huge2M => 21,
        }
    }

    /// Page size in bytes.
    pub const fn bytes(self) -> u64 {
        1 << self.shift()
    }

    /// Number of radix-tree levels a walk must traverse to reach the leaf
    /// PTE for this page size in a 5-level page table (4 KiB leaves live at
    /// level 1, 2 MiB leaves at level 2).
    #[inline]
    pub const fn leaf_level(self) -> u8 {
        match self {
            PageSize::Base4K => 1,
            PageSize::Huge2M => 2,
        }
    }
}

impl std::fmt::Display for PageSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageSize::Base4K => f.write_str("4K"),
            PageSize::Huge2M => f.write_str("2M"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(PageSize::Base4K.bytes(), 4096);
        assert_eq!(PageSize::Huge2M.bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn leaf_levels() {
        assert_eq!(PageSize::Base4K.leaf_level(), 1);
        assert_eq!(PageSize::Huge2M.leaf_level(), 2);
    }

    #[test]
    fn huge_page_covers_512_base_pages() {
        assert_eq!(PageSize::Huge2M.bytes() / PageSize::Base4K.bytes(), 512);
    }
}
