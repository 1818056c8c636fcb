//! Umbrella crate for the FedProphet reproduction workspace.
//!
//! Re-exports every sub-crate so examples and integration tests can use one
//! coherent namespace. See the workspace `README.md` for the architecture
//! overview and the paper-to-module map.

pub use fedprophet;
pub use fp_attack as attack;
pub use fp_data as data;
pub use fp_fl as fl;
pub use fp_hwsim as hwsim;
pub use fp_nn as nn;
pub use fp_tensor as tensor;
