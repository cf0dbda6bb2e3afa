//! K-means clustering with cluster-count selection, as used by ShiftEx's
//! aggregator (§5.2.1 of the paper): shifted parties are grouped by their
//! latent representations with k-means, and the number of clusters is chosen
//! with the Davies–Bouldin index combined with the elbow method.
//!
//! # Example
//!
//! ```
//! use shiftex_cluster::{KMeans, choose_k};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // Two obvious groups on a line.
//! let points: Vec<Vec<f32>> = (0..20)
//!     .map(|i| vec![if i < 10 { 0.0 } else { 10.0 } + (i % 10) as f32 * 0.01])
//!     .collect();
//! let result = KMeans::new(2).fit(&points, &mut rng);
//! assert_eq!(result.centroids.len(), 2);
//! let pick = choose_k(&points, 4, &mut rng);
//! assert_eq!(pick.k, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kmeans;
mod select;
mod validity;

pub use kmeans::{KMeans, KMeansResult};
pub use select::{choose_k, choose_k_rows, KSelection, DB_ACCEPT, ELBOW_FRAC};
pub use validity::davies_bouldin;
