//! A result-affecting crate that still keeps floats in one file.

#![forbid(unsafe_code)]

pub mod cc;
