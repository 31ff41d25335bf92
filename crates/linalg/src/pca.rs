//! Principal component analysis — the `VarPCA` front-end of VAQ
//! (paper Algorithm 1) and the projection step shared with OPQ and ITQ.

use crate::covariance::{column_means, covariance_centered};
use crate::eigen::{sym_eigen, SymEigen};
use crate::matrix::Matrix;
use crate::Result;

/// A fitted PCA model.
///
/// Holds the column means used for centering, the eigenvector basis (one
/// component per column, sorted by descending eigenvalue) and the
/// eigenvalues themselves. The eigenvalues double as VAQ's per-dimension
/// importance scores (paper Equation 6).
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f32>,
    components: Matrix,
    eigenvalues: Vec<f64>,
}

impl Pca {
    /// Reassembles a model from its parts (deserialization support).
    ///
    /// # Panics
    /// Panics if the shapes disagree.
    pub fn from_parts(mean: Vec<f32>, components: Matrix, eigenvalues: Vec<f64>) -> Pca {
        assert_eq!(mean.len(), components.rows(), "mean/components mismatch");
        assert_eq!(eigenvalues.len(), components.cols(), "eigenvalues/components mismatch");
        Pca { mean, components, eigenvalues }
    }

    /// Fits PCA on the rows of `x` (mean-centered covariance).
    pub fn fit(x: &Matrix) -> Result<Pca> {
        let cov = covariance_centered(x)?;
        let SymEigen { values, vectors } = sym_eigen(&cov)?;
        let mean = column_means(x)?.into_iter().map(|v| v as f32).collect();
        Ok(Pca { mean, components: vectors.to_f32(), eigenvalues: values })
    }

    /// Dimensionality of the fitted space.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Eigenvalues in descending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Eigenvector basis, one component per column.
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Column means used for centering.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// Per-dimension importance as the normalized absolute eigenvalue mass —
    /// paper Equation 6.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        let total: f64 = self.eigenvalues.iter().map(|v| v.abs()).sum();
        if total == 0.0 {
            return vec![0.0; self.eigenvalues.len()];
        }
        self.eigenvalues.iter().map(|v| v.abs() / total).collect()
    }

    /// Projects every row of `x` onto the component basis: `(X − μ) V`.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix> {
        let mut centered = x.clone();
        for i in 0..centered.rows() {
            let row = centered.row_mut(i);
            for (v, &m) in row.iter_mut().zip(self.mean.iter()) {
                *v -= m;
            }
        }
        centered.matmul(&self.components)
    }

    /// Projects a single vector (e.g. an incoming query).
    pub fn transform_vec(&self, v: &[f32]) -> Result<Vec<f32>> {
        let centered: Vec<f32> = v.iter().zip(self.mean.iter()).map(|(a, m)| a - m).collect();
        self.components.project_row(&centered)
    }

    /// Reorders the component columns (and eigenvalues) by `perm`.
    ///
    /// This is the hook VAQ's partial-balancing step uses: it permutes PCs
    /// between subspaces and the projection must follow the same order so
    /// that queries land in the same coordinates as encoded data.
    pub fn permute_components(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.eigenvalues.len());
        self.components = self.components.select_columns(perm);
        self.eigenvalues = perm.iter().map(|&i| self.eigenvalues[i]).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Correlated 2-D cloud along y = 2x.
    fn line_cloud() -> Matrix {
        let mut rows = Vec::new();
        let mut s = 9u64;
        for i in 0..200 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = ((s >> 40) as f32 / (1u32 << 23) as f32) - 1.0;
            let t = (i as f32 / 100.0) - 1.0;
            rows.push(vec![t + 0.01 * noise, 2.0 * t - 0.01 * noise]);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn first_component_captures_dominant_direction() {
        let pca = Pca::fit(&line_cloud()).unwrap();
        let ratio = pca.explained_variance_ratio();
        assert!(ratio[0] > 0.99, "dominant PC should explain almost all variance: {ratio:?}");
        // Direction should be ~ (1, 2)/sqrt(5).
        let c = pca.components();
        let dir = (c.get(0, 0) / c.get(1, 0)).abs();
        assert!((dir - 0.5).abs() < 0.05, "expected slope 2 direction, got ratio {dir}");
    }

    #[test]
    fn transform_vec_matches_matrix_transform() {
        let x = line_cloud();
        let pca = Pca::fit(&x).unwrap();
        let z = pca.transform(&x).unwrap();
        let zv = pca.transform_vec(x.row(7)).unwrap();
        for j in 0..x.cols() {
            assert!((z.get(7, j) - zv[j]).abs() < 1e-5);
        }
    }

    #[test]
    fn projection_preserves_pairwise_distances() {
        // Orthonormal projection to the full basis is an isometry.
        let x = line_cloud();
        let pca = Pca::fit(&x).unwrap();
        let z = pca.transform(&x).unwrap();
        let d_orig = crate::norms::euclidean(x.row(3), x.row(50));
        let d_proj = crate::norms::euclidean(z.row(3), z.row(50));
        assert!((d_orig - d_proj).abs() < 1e-4);
    }

    #[test]
    fn eigenvalues_descending() {
        let pca = Pca::fit(&line_cloud()).unwrap();
        for w in pca.eigenvalues().windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn permute_components_reorders_projection() {
        let x = line_cloud();
        let mut pca = Pca::fit(&x).unwrap();
        let before = pca.transform_vec(x.row(0)).unwrap();
        pca.permute_components(&[1, 0]);
        let after = pca.transform_vec(x.row(0)).unwrap();
        assert!((before[0] - after[1]).abs() < 1e-6);
        assert!((before[1] - after[0]).abs() < 1e-6);
    }

    #[test]
    fn explained_variance_ratio_sums_to_one() {
        let pca = Pca::fit(&line_cloud()).unwrap();
        let s: f64 = pca.explained_variance_ratio().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }
}
