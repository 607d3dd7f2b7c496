//! Artifact packing shared by every `Params`-backed model: the three
//! surrogates here and stco-core's system surrogate.
//!
//! Every such model serializes the same way: the weight
//! tensors in canonical allocation order (`Params::tensors`), followed
//! by one extra tensor holding the target-normalization constants, plus
//! a JSON meta header carrying the architecture config needed to
//! rebuild the model skeleton. Rehydration is `new(config)` +
//! `import_tensors` + restore norms — values and norms fully determine
//! inference, so a loaded model predicts bitwise-identically to the
//! one that was saved.

use stco_nn::Params;
use stco_numerics::Matrix;
use stco_obs::json::JsonValue;
use stco_store::{Artifact, StoreError};

/// What reading an artifact back yields.
type StoreResult<T> = std::result::Result<T, StoreError>;

/// Packs params + a norm tensor + meta fields into an artifact.
pub fn pack_model(
    kind: &str,
    meta: &[(&str, JsonValue)],
    params: &Params,
    norms: Matrix,
) -> Artifact {
    let mut tensors = params.export_tensors();
    tensors.push(norms);
    let meta = meta.iter().map(|(k, v)| (k.to_string(), v.clone()));
    Artifact::new(kind, JsonValue::Obj(meta.collect()), tensors)
}

/// Splits an artifact back into (weight tensors, norm tensor),
/// checking the kind tag.
///
/// # Errors
///
/// [`StoreError`] for another kind or an artifact with no tensors.
pub fn unpack_model<'a>(
    artifact: &'a Artifact,
    kind: &str,
) -> StoreResult<(&'a [Matrix], &'a Matrix)> {
    artifact.expect_kind(kind)?;
    artifact
        .tensors
        .split_last()
        .map(|(norms, weights)| (weights, norms))
        .ok_or_else(|| StoreError::Header {
            context: format!("{kind} artifact holds no tensors"),
        })
}

/// Imports weight tensors into a freshly-built model's params,
/// converting shape/count mismatches into a typed header error.
///
/// # Errors
///
/// [`StoreError::Header`] when the tensors do not fit `params`.
pub fn import_weights(params: &mut Params, weights: &[Matrix]) -> StoreResult<()> {
    params
        .import_tensors(weights)
        .map_err(|e| StoreError::Header {
            context: format!("weight tensors do not fit this architecture: {e}"),
        })
}

/// Reads the `[mean, std]` target normalization of a scalar-target
/// model from its norm tensor; `model` names it in the error.
pub(crate) fn norm_pair(norms: &Matrix, model: &str) -> StoreResult<(f64, f64)> {
    match *norms.as_slice() {
        [mean, std] => Ok((mean, std)),
        ref ns => Err(StoreError::Header {
            context: format!("{model} norm tensor has {} values, want 2", ns.len()),
        }),
    }
}

/// Reads a required meta field as usize (stored as a JSON number).
pub(crate) fn meta_usize(artifact: &Artifact, key: &str) -> StoreResult<usize> {
    let v = artifact.meta_f64(key)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(StoreError::Header {
            context: format!("meta field {key:?} is not a non-negative integer: {v}"),
        });
    }
    Ok(v as usize)
}

/// Renders a usize meta field.
pub(crate) fn num(v: usize) -> JsonValue {
    JsonValue::Num(v as f64)
}
