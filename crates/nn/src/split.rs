//! One held-out evaluation split across data-parallel ranks.
//!
//! A [`crate::data::Task::quality`] feeds its held-out rows through
//! [`Network::forward`] in one or more calls. Number those rows in call
//! order: part `part` of `parts` computes only the rows
//! [`shard_range`]`(rows, part, parts)`, the parts exchange their outputs
//! once, and a last pass of `quality` reads every call's output from the
//! combined rows. Each output row of a forward depends on its own input row
//! only ([`crate::Layer::forward`]), so the combined outputs — and the
//! quality — are bit-identical to a serial evaluation at any number of parts.
//!
//! `quality` runs three times: once to count the rows (a forward then
//! computes one probe row per input width, for the output shape), once to
//! compute this part's rows, and once to replay. Its forward calls must not
//! depend on the outputs of earlier ones; every task's held-out set is fixed.

use crate::data::shard_range;
use crate::layer::{forward_stack, Layer};
use crate::network::Network;
use grace_tensor::{Shape, Tensor};
use std::ops::Range;

/// One forward call of an evaluation: its input rows and width, and the
/// output rows and width one input row makes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Call {
    rows: usize,
    cols: usize,
    out_rows: usize,
    out_cols: usize,
}

/// What a forward call does during one pass of a split evaluation.
#[derive(Debug)]
enum Pass {
    /// Notes each call; its output is zeros of the right shape.
    Count,
    /// Computes the global rows `own` and appends their outputs to `out`.
    Compute { own: Range<usize>, out: Vec<f32> },
    /// Hands each call its rows of `outputs`, every row's output in order.
    Replay { outputs: Vec<f32>, at: usize },
}

/// A split evaluation's pass in progress, held by the network it drives.
#[derive(Debug)]
pub(crate) struct Split {
    pass: Pass,
    calls: Vec<Call>,
    /// Index of the next call, and the global row its first row is.
    next: usize,
    row: usize,
}

/// The rows of `range` among `start..start + rows`.
fn overlap(range: &Range<usize>, start: usize, rows: usize) -> Range<usize> {
    range.start.clamp(start, start + rows)..range.end.clamp(start, start + rows)
}

/// Output floats of the global rows `range` of `calls`.
fn out_len(calls: &[Call], range: &Range<usize>) -> usize {
    let mut start = 0;
    calls
        .iter()
        .map(|c| {
            let rows = overlap(range, start, c.rows).len();
            start += c.rows;
            rows * c.out_rows * c.out_cols
        })
        .sum()
}

impl Split {
    /// `layers`' output for `x` under this pass.
    pub(crate) fn forward(&mut self, layers: &mut [Box<dyn Layer>], x: &Tensor) -> Tensor {
        let (rows, cols) = x.shape().as_matrix();
        let call = match self.pass {
            Pass::Count => {
                let call = self.probe(layers, x);
                self.calls.push(call);
                call
            }
            _ => *self
                .calls
                .get(self.next)
                .filter(|c| (c.rows, c.cols) == (rows, cols))
                .expect("a split evaluation's forward calls repeat the counted ones"),
        };
        let start = self.row;
        self.next += 1;
        self.row += rows;
        let shape = Shape::matrix(rows * call.out_rows, call.out_cols);
        match &mut self.pass {
            Pass::Count => Tensor::zeros(shape),
            Pass::Compute { own, out } => {
                let mine = overlap(own, start, rows);
                if mine.len() == rows {
                    out.extend_from_slice(forward_stack(layers, x, false).as_slice());
                } else if !mine.is_empty() {
                    let part =
                        &x.as_slice()[(mine.start - start) * cols..(mine.end - start) * cols];
                    let part = Tensor::new(part.to_vec(), Shape::matrix(mine.len(), cols));
                    out.extend_from_slice(forward_stack(layers, &part, false).as_slice());
                }
                Tensor::zeros(shape)
            }
            Pass::Replay { outputs, at } => {
                let data = outputs[*at..*at + shape.len()].to_vec();
                *at += data.len();
                Tensor::new(data, shape)
            }
        }
    }

    /// `x`'s call, its output shape from one forwarded row per input width.
    fn probe(&self, layers: &mut [Box<dyn Layer>], x: &Tensor) -> Call {
        let (rows, cols) = x.shape().as_matrix();
        if let Some(seen) = self.calls.iter().find(|c| c.cols == cols && c.rows > 0) {
            return Call { rows, ..*seen };
        }
        let first = Tensor::new(
            x.as_slice()[..cols.min(x.len())].to_vec(),
            Shape::matrix(rows.min(1), cols),
        );
        let (out_rows, out_cols) = forward_stack(layers, &first, false).shape().as_matrix();
        Call {
            rows,
            cols,
            out_rows,
            out_cols,
        }
    }
}

impl Network {
    /// `quality`, evaluated as part `part` of `parts` (see [the module
    /// docs](crate::split)): this network computes only its share of the
    /// held-out rows and hands their outputs to `exchange`, which returns
    /// every part's outputs in part order — `None` for a part it could not
    /// get. A missing part, or one of the wrong length, is computed here.
    ///
    /// # Errors
    ///
    /// Whatever `exchange` returns.
    ///
    /// # Panics
    ///
    /// If `part >= parts`, or if `quality`'s forward calls differ between
    /// its passes.
    pub fn split_quality<E>(
        &mut self,
        quality: &dyn Fn(&mut Network) -> f64,
        part: usize,
        parts: usize,
        exchange: impl FnOnce(Vec<f32>) -> Result<Vec<Option<Vec<f32>>>, E>,
    ) -> Result<f64, E> {
        let (_, counted) = self.pass(quality, Pass::Count, Vec::new());
        let calls = counted.calls;
        let rows = calls.iter().map(|c| c.rows).sum();
        let compute = |net: &mut Network, own| {
            let pass = Pass::Compute {
                own,
                out: Vec::new(),
            };
            match net.pass(quality, pass, calls.clone()).1.pass {
                Pass::Compute { out, .. } => out,
                _ => unreachable!("a pass keeps its kind"),
            }
        };
        let mine = compute(self, shard_range(rows, part, parts));
        let mut theirs = exchange(mine)?.into_iter();
        let mut outputs = Vec::with_capacity(out_len(&calls, &(0..rows)));
        for p in 0..parts {
            let range = shard_range(rows, p, parts);
            match theirs.next().flatten() {
                Some(got) if got.len() == out_len(&calls, &range) => outputs.extend(got),
                _ => outputs.extend(compute(self, range)),
            }
        }
        let replay = Pass::Replay { outputs, at: 0 };
        Ok(self.pass(quality, replay, calls).0)
    }

    /// One pass of `quality` with this network's forward calls under `pass`.
    fn pass(
        &mut self,
        quality: &dyn Fn(&mut Network) -> f64,
        pass: Pass,
        calls: Vec<Call>,
    ) -> (f64, Split) {
        self.split = Some(Split {
            pass,
            calls,
            next: 0,
            row: 0,
        });
        let q = quality(self);
        (q, self.split.take().expect("a pass keeps its split"))
    }
}
