//! Elementwise arithmetic with broadcasting, and scalar maps.

use crate::autograd::{Backward, BackwardCtx};
use crate::{NdArray, Tensor};

/// Binary elementwise ops. The gradient of a broadcast input is the output
/// gradient summed back down to the input's shape.
enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
}

struct BinOp {
    kind: BinKind,
}

impl Backward for BinOp {
    fn backward(&self, g: &NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        let a = ctx.parents[0].data();
        let b = ctx.parents[1].data();
        // `into_reduced` moves a result that already has its parent's shape;
        // the borrowed `g` is copied at most once per parent
        let (ga, gb) = match self.kind {
            BinKind::Add => (g.reduce_to_shape(a.shape()), g.reduce_to_shape(b.shape())),
            BinKind::Sub => {
                (g.reduce_to_shape(a.shape()), g.mul_scalar(-1.0).into_reduced(b.shape()))
            }
            BinKind::Mul => {
                (g.mul(&b).into_reduced(a.shape()), g.mul(&a).into_reduced(b.shape()))
            }
            BinKind::Div => {
                let ga = g.div(&b).into_reduced(a.shape());
                // d/db (a/b) = -a / b²
                let gb = g.mul(&a).mul_scalar(-1.0).div(&b).div(&b).into_reduced(b.shape());
                (ga, gb)
            }
        };
        vec![Some(ga), Some(gb)]
    }

    fn name(&self) -> &'static str {
        match self.kind {
            BinKind::Add => "add",
            BinKind::Sub => "sub",
            BinKind::Mul => "mul",
            BinKind::Div => "div",
        }
    }
}

/// Unary elementwise maps whose derivative is a simple function of the
/// input and/or output.
enum UnaryKind {
    Neg,
    AddScalar,
    MulScalar(f32),
    Sqrt,
    Exp,
    Ln,
    PowScalar(f32),
    Square,
}

struct UnaryOp {
    kind: UnaryKind,
}

impl Backward for UnaryOp {
    fn backward(&self, g: &NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        let x = ctx.parents[0].data();
        let gx = match self.kind {
            UnaryKind::Neg => g.mul_scalar(-1.0),
            UnaryKind::AddScalar => g.clone(),
            UnaryKind::MulScalar(s) => g.mul_scalar(s),
            // d sqrt(x) = 1 / (2 sqrt(x)) = 1 / (2 out)
            UnaryKind::Sqrt => g.zip_map(ctx.output, |gv, ov| gv * 0.5 / ov),
            UnaryKind::Exp => g.mul(ctx.output),
            UnaryKind::Ln => g.div(&x),
            UnaryKind::PowScalar(p) => g.zip_map(&x, |gv, xv| gv * p * xv.powf(p - 1.0)),
            UnaryKind::Square => g.zip_map(&x, |gv, xv| gv * 2.0 * xv),
        };
        vec![Some(gx)]
    }

    fn name(&self) -> &'static str {
        match self.kind {
            UnaryKind::Neg => "neg",
            UnaryKind::AddScalar => "add_scalar",
            UnaryKind::MulScalar(_) => "mul_scalar",
            UnaryKind::Sqrt => "sqrt",
            UnaryKind::Exp => "exp",
            UnaryKind::Ln => "ln",
            UnaryKind::PowScalar(_) => "pow_scalar",
            UnaryKind::Square => "square",
        }
    }
}

impl Tensor {
    /// Elementwise `self + other` with broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let out = self.data().add(&other.data());
        Tensor::from_op(out, vec![self.clone(), other.clone()], Box::new(BinOp { kind: BinKind::Add }))
    }

    /// Elementwise `self - other` with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let out = self.data().sub(&other.data());
        Tensor::from_op(out, vec![self.clone(), other.clone()], Box::new(BinOp { kind: BinKind::Sub }))
    }

    /// Elementwise `self * other` with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        let out = self.data().mul(&other.data());
        Tensor::from_op(out, vec![self.clone(), other.clone()], Box::new(BinOp { kind: BinKind::Mul }))
    }

    /// Elementwise `self / other` with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        let out = self.data().div(&other.data());
        Tensor::from_op(out, vec![self.clone(), other.clone()], Box::new(BinOp { kind: BinKind::Div }))
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        let out = self.data().mul_scalar(-1.0);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::Neg }))
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let out = self.data().add_scalar(s);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::AddScalar }))
    }

    /// Multiply every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        let out = self.data().mul_scalar(s);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::MulScalar(s) }))
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        let out = self.data().map(f32::sqrt);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::Sqrt }))
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        let out = self.data().map(f32::exp);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::Exp }))
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        let out = self.data().map(f32::ln);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::Ln }))
    }

    /// Elementwise power with a scalar exponent.
    pub fn pow_scalar(&self, p: f32) -> Tensor {
        let out = self.data().map(|v| v.powf(p));
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::PowScalar(p) }))
    }

    /// Elementwise square: `x * x` as one node with one graph edge, and
    /// multiplications rather than `powf` in both directions.
    pub fn square(&self) -> Tensor {
        let out = self.data().map(|v| v * v);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::Square }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::param(NdArray::from_vec(v, s))
    }

    #[test]
    fn add_broadcast_grad_reduces() {
        let a = p(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = p(vec![10.0, 20.0, 30.0], &[3]);
        let y = a.add(&b).sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0; 6]);
        assert_eq!(b.grad().unwrap().data(), &[2.0, 2.0, 2.0]); // summed over rows
    }

    #[test]
    fn div_grads() {
        let a = p(vec![6.0], &[1]);
        let b = p(vec![2.0], &[1]);
        let y = a.div(&b).sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[0.5]); // 1/b
        assert_eq!(b.grad().unwrap().data(), &[-1.5]); // -a/b²
    }

    #[test]
    fn chain_of_unary_ops() {
        // y = ln(exp(x)) = x → dy/dx = 1
        let x = p(vec![0.3, 1.7], &[2]);
        let y = x.exp().ln().sum_all();
        y.backward();
        let g = x.grad().unwrap();
        assert!(g.allclose(&NdArray::ones(&[2]), 1e-4, 1e-5), "{g:?}");
    }

    #[test]
    fn sqrt_grad() {
        let x = p(vec![4.0], &[1]);
        let y = x.sqrt().sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[0.25]);
    }

    #[test]
    fn square_is_one_node_with_exact_products() {
        let x = p(vec![-3.0, 0.1, 1.5e-3], &[3]);
        let before = crate::graph_nodes_created();
        let y = x.square();
        assert_eq!(crate::graph_nodes_created() - before, 1);
        let want: Vec<f32> = x.data().data().iter().map(|v| v * v).collect();
        assert_eq!(y.data().data(), want.as_slice());
        y.sum_all().backward();
        let want: Vec<f32> = x.data().data().iter().map(|v| 2.0 * v).collect();
        assert_eq!(x.grad().unwrap().data(), want.as_slice()); // 2x
    }

    #[test]
    fn pow_scalar_grad() {
        let x = p(vec![2.0], &[1]);
        let y = x.pow_scalar(3.0).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[12.0]); // 3x²
    }
}
