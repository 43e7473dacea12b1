//! One module per reproduced figure. Each returns structured results so
//! the figure reports can print them and integration tests can assert
//! the paper's claims on reduced scales.

pub mod calibrate;
pub mod consolidation;
pub mod depth_sweep;
pub mod fig08;
pub mod fig09;
pub mod motivation;
pub mod sensitivity;

pub use calibrate::calibration_table;
