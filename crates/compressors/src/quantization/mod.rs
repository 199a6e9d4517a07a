//! Quantization methods (paper §III-A): every gradient element survives, at
//! reduced precision.

mod eight_bit;
mod inceptionn;
mod natural;
mod one_bit;
pub(crate) mod qsgd;
mod sign;
mod terngrad;

pub use eight_bit::EightBit;
pub use inceptionn::Inceptionn;
pub use natural::Natural;
pub use one_bit::OneBit;
pub use qsgd::Qsgd;
pub use sign::{EfSignSgd, SignSgd, Signum};
pub use terngrad::TernGrad;
