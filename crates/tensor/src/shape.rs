//! Row-major tensor shapes.

use std::fmt;
use std::hash::{Hash, Hasher};

/// How many of an inline shape's three slots are extents. Every tensor the
/// models and kernels produce (scalars, vectors, matrices, bilinear
/// weights) has one of these ranks.
///
/// A word-sized enum rather than a `u8`: the values it cannot take are
/// where [`Repr`] keeps its tag, so a shape is four whole words. Around a
/// byte-sized rank the compiler copies a shape with narrow, overlapping
/// moves, and the wide load of the next clone stalls on them (measured:
/// `dispatch/op_chain` +6 %).
#[derive(Clone, Copy)]
#[repr(usize)]
enum Rank {
    R0,
    R1,
    R2,
    R3,
}

/// The shape (dimension sizes) of a [`crate::Tensor`], row-major.
///
/// A rank-0 shape (`[]`) denotes a scalar with exactly one element; this is
/// the convention used for loss values and control-flow predicates.
///
/// Cloning a shape of rank ≤ 3 copies four words and allocates nothing, so a
/// `Tensor::clone` — what argument passing, `fetch` and a frame's prelude
/// are made of — is one reference-count increment. Higher ranks spill to the
/// heap. Equality and hashing see only [`Shape::dims`].
#[derive(Clone)]
pub struct Shape(Repr);

#[derive(Clone)]
enum Repr {
    /// `dims[..rank]` are the extents; the rest stay zero.
    Inline {
        rank: Rank,
        dims: [usize; 3],
    },
    Spill(Box<[usize]>),
}

impl Shape {
    /// Creates a shape from explicit dimension sizes.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape::from(dims.as_slice())
    }

    /// The scalar shape `[]` (one element, rank zero).
    pub fn scalar() -> Self {
        Shape::from([])
    }

    /// A rank-1 shape `[n]`.
    pub fn vector(n: usize) -> Self {
        Shape::from([n])
    }

    /// A rank-2 shape `[rows, cols]`.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape::from([rows, cols])
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.dims().len()
    }

    /// Dimension sizes as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        match &self.0 {
            Repr::Inline { rank, dims } => &dims[..*rank as usize],
            Repr::Spill(dims) => dims,
        }
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank`; callers validate axes before indexing.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims()[axis]
    }

    /// Total number of elements (product of all dimensions, 1 for scalars).
    #[inline]
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Returns `true` if this shape holds exactly one element.
    ///
    /// Both `[]` and `[1]` (and `[1, 1]`, …) are accepted as scalar-like;
    /// control-flow predicates use this relaxed notion.
    pub fn is_scalar_like(&self) -> bool {
        self.numel() == 1
    }

    /// Row-major strides for this shape (innermost dimension has stride 1).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0; self.rank()];
        let mut acc = 1usize;
        for (i, d) in self.dims().iter().enumerate().rev() {
            strides[i] = acc;
            acc *= d;
        }
        strides
    }

    /// Interprets this shape as a matrix, returning `(rows, cols)`.
    ///
    /// Rank-1 shapes are viewed as a single row; returns `None` for rank > 2
    /// or rank 0.
    #[inline]
    pub fn as_matrix(&self) -> Option<(usize, usize)> {
        match self.dims() {
            [cols] => Some((1, *cols)),
            [rows, cols] => Some((*rows, *cols)),
            _ => None,
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Shape").field(&self.dims()).finish()
    }
}

impl Default for Shape {
    fn default() -> Self {
        Shape::scalar()
    }
}

impl PartialEq for Shape {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            // Unused slots are zero, so whole arrays compare: no `memcmp`.
            (Repr::Inline { rank: r, dims: a }, Repr::Inline { rank: q, dims: b }) => {
                *r as usize == *q as usize && a == b
            }
            _ => self.dims() == other.dims(),
        }
    }
}

impl Eq for Shape {}

impl Hash for Shape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.dims().hash(state);
    }
}

impl From<&[usize]> for Shape {
    #[inline]
    fn from(dims: &[usize]) -> Self {
        let rank = match dims.len() {
            0 => Rank::R0,
            1 => Rank::R1,
            2 => Rank::R2,
            3 => Rank::R3,
            _ => return Shape(Repr::Spill(dims.into())),
        };
        let mut inline = [0; 3];
        inline[..dims.len()].copy_from_slice(dims);
        Shape(Repr::Inline { rank, dims: inline })
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::from(dims.as_slice())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::from(dims.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert!(s.is_scalar_like());
    }

    #[test]
    fn numel_is_product_of_dims() {
        assert_eq!(Shape::new(vec![2, 3, 4]).numel(), 24);
        assert_eq!(Shape::vector(7).numel(), 7);
        assert_eq!(Shape::matrix(5, 6).numel(), 30);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::new(vec![2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::vector(5).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn as_matrix_views() {
        assert_eq!(Shape::vector(4).as_matrix(), Some((1, 4)));
        assert_eq!(Shape::matrix(3, 4).as_matrix(), Some((3, 4)));
        assert_eq!(Shape::scalar().as_matrix(), None);
        assert_eq!(Shape::new(vec![2, 2, 2]).as_matrix(), None);
    }

    #[test]
    fn display_renders_brackets() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn inline_and_spilled_forms_agree() {
        use std::collections::HashMap;
        // Ranks 0–3 are inline, 4 and up spill; nothing observable differs.
        for rank in 0..=5usize {
            let dims: Vec<usize> = (2..2 + rank).collect();
            let s = Shape::new(dims.clone());
            assert_eq!(s.rank(), rank);
            assert_eq!(s.dims(), dims.as_slice());
            assert_eq!(s, Shape::from(dims.as_slice()));
            assert_eq!(s.clone(), s);
            assert_eq!(s.numel(), dims.iter().product::<usize>());
            assert_eq!(format!("{s:?}"), format!("Shape({dims:?})"));
            let mut want = vec![1usize; rank];
            for i in (0..rank.saturating_sub(1)).rev() {
                want[i] = want[i + 1] * dims[i + 1];
            }
            assert_eq!(s.strides(), want);
        }
        assert_eq!(Shape::default(), Shape::scalar());
        assert_eq!(
            std::mem::size_of::<Shape>(),
            4 * std::mem::size_of::<usize>()
        );
        assert_eq!(Shape::from([2, 3, 4, 5, 6]).to_string(), "[2, 3, 4, 5, 6]");
        // A prefix is a different shape, inline or not.
        assert_ne!(Shape::from([2, 3]), Shape::from([2, 3, 1]));
        assert_ne!(Shape::from([2, 3, 4]), Shape::from([2, 3, 4, 1]));
        assert_ne!(Shape::from([0]), Shape::scalar());

        let mut by_shape = HashMap::new();
        by_shape.insert(Shape::matrix(2, 3), "matrix");
        by_shape.insert(Shape::from([2, 3, 4, 5, 6]), "rank 5");
        assert_eq!(by_shape[&Shape::new(vec![2, 3])], "matrix");
        assert_eq!(by_shape[&Shape::new(vec![2, 3, 4, 5, 6])], "rank 5");
        assert!(!by_shape.contains_key(&Shape::from([2, 3, 4, 5])));
    }

    #[test]
    fn one_one_is_scalar_like() {
        assert!(Shape::new(vec![1, 1]).is_scalar_like());
        assert!(!Shape::new(vec![1, 2]).is_scalar_like());
    }
}
