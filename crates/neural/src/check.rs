//! Structural validation of deserialized layers.
//!
//! Serde fills a layer's fields from whatever a checkpoint holds, and the
//! kernels index weights by the declared shapes, so a truncated weight
//! array or a block whose channels do not chain would load fine and then
//! panic mid-forward. Every network type exposes a `validate` built from
//! these checks: each length a forward pass indexes by matches its
//! declared shape, and every parameter is finite. Checkpoint loaders run
//! it and turn a failure into a typed error.

use crate::batchnorm::BatchNorm1d;
use crate::conv::Conv1d;
use crate::linear::Linear;

/// `Err` unless `found == expected`; the message names `what`'s `field`.
pub(crate) fn dim(what: &str, field: &str, found: usize, expected: usize) -> Result<(), String> {
    if found == expected {
        Ok(())
    } else {
        Err(format!("{what} {field}: {found}, expected {expected}"))
    }
}

/// `Err` unless `values` holds exactly `len` finite numbers (`None`: the
/// declared shape overflows `usize`).
fn params(what: &str, field: &str, values: &[f32], len: Option<usize>) -> Result<(), String> {
    let len = len.ok_or_else(|| format!("{what} {field}: declared shape overflows"))?;
    dim(what, &format!("{field} length"), values.len(), len)?;
    match values.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(format!("{what} {field}[{i}] is not finite")),
        None => Ok(()),
    }
}

impl Conv1d {
    /// An `in_channels → out_channels` convolution with a positive kernel
    /// and dilation, `[out, in, k]` finite weights and `[out]` finite
    /// bias.
    pub(crate) fn check(&self, what: &str, in_ch: usize, out_ch: usize) -> Result<(), String> {
        dim(what, "input channels", self.in_channels, in_ch)?;
        dim(what, "output channels", self.out_channels, out_ch)?;
        if self.kernel == 0 || self.dilation == 0 {
            return Err(format!("{what}: kernel and dilation must be positive"));
        }
        let n = (out_ch.checked_mul(in_ch)).and_then(|n| n.checked_mul(self.kernel));
        params(what, "weight", &self.weight, n)?;
        params(what, "bias", &self.bias, Some(out_ch))
    }
}

impl BatchNorm1d {
    /// `channels` finite affine and running-statistics entries, a
    /// non-negative running variance and a positive epsilon.
    pub(crate) fn check(&self, what: &str, channels: usize) -> Result<(), String> {
        dim(what, "channels", self.channels, channels)?;
        params(what, "gamma", &self.gamma, Some(channels))?;
        params(what, "beta", &self.beta, Some(channels))?;
        params(what, "running_mean", &self.running_mean, Some(channels))?;
        params(what, "running_var", &self.running_var, Some(channels))?;
        if self.running_var.iter().any(|&v| v < 0.0) {
            return Err(format!("{what}: negative running variance"));
        }
        if !(self.eps > 0.0 && self.eps.is_finite() && self.momentum.is_finite()) {
            return Err(format!("{what}: eps must be positive and momentum finite"));
        }
        Ok(())
    }
}

/// The GAP head every detector backbone ends in: `features → num_classes`
/// with at least two classes (the CAM reads class 1), `[out, in]` finite
/// weights and `[out]` finite bias.
pub(crate) fn head(head: &Linear, features: usize, num_classes: usize) -> Result<(), String> {
    if num_classes < 2 {
        return Err(format!("head: {num_classes} classes, expected at least 2"));
    }
    dim("head", "input features", head.in_features, features)?;
    dim("head", "output features", head.out_features, num_classes)?;
    params(
        "head",
        "weight",
        &head.weight,
        num_classes.checked_mul(features),
    )?;
    params("head", "bias", &head.bias, Some(num_classes))
}
