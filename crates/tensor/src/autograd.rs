//! Reverse-mode automatic differentiation.
//!
//! A [`Tensor`] is a reference-counted node in a dynamically built
//! computation graph. Operations (defined in [`crate::ops`]) eagerly compute
//! their forward value and attach a [`Backward`] implementation that maps the
//! output gradient to parent gradients. [`Tensor::backward`] topologically
//! sorts the graph and accumulates gradients into every node that requires
//! them.
//!
//! Graphs are single-use: each forward pass builds a fresh graph that is
//! dropped (freeing all intermediates) once the loss tensor goes out of
//! scope. Leaf parameters (created with [`Tensor::param`]) persist across
//! iterations; their accumulated gradients are read by the optimiser and
//! cleared with [`Tensor::zero_grad`].

use std::cell::{Cell, Ref, RefCell, RefMut};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::NdArray;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Count of autograd op nodes (nodes carrying a backward function)
    /// created on this thread since it started. Per thread, so a reading
    /// taken around a forward pass counts that pass alone, whatever other
    /// threads build meanwhile; the inference tests assert it stays
    /// constant across a [`no_grad`] forward pass.
    static GRAPH_NODES: Cell<u64> = const { Cell::new(0) };
    /// Whether [`Tensor::from_op`] records graph edges on this thread.
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Whether operations on the current thread record autograd graph nodes.
pub fn is_grad_enabled() -> bool {
    GRAD_ENABLED.with(|g| g.get())
}

/// Autograd op nodes created so far on the calling thread. Take a reading
/// before and after a forward pass on the same thread to measure how many
/// graph nodes it allocated; under [`no_grad`] the difference must be
/// zero. Graphs are `Rc`-based and never leave the thread that builds
/// them, so a per-thread count misses no node of a pass.
pub fn graph_nodes_created() -> u64 {
    GRAPH_NODES.with(Cell::get)
}

/// RAII guard returned by [`no_grad`]; restores the previous grad mode
/// (panic-safe) when dropped.
pub struct NoGradGuard {
    prev: bool,
}

impl Drop for NoGradGuard {
    fn drop(&mut self) {
        GRAD_ENABLED.with(|g| g.set(self.prev));
    }
}

/// Disable gradient recording on the current thread until the returned
/// guard is dropped. Inside the guard every op returns a plain
/// [`Tensor::constant`]: no parents are retained and no backward closures
/// are allocated, so a forward pass holds at most one live intermediate at
/// a time. Guards nest; the innermost scope wins.
pub fn no_grad() -> NoGradGuard {
    NoGradGuard { prev: GRAD_ENABLED.with(|g| g.replace(false)) }
}

/// Context handed to [`Backward::backward`]: the node's parents and its
/// forward output (some gradients, e.g. sigmoid's, are cheapest in terms of
/// the output).
pub struct BackwardCtx<'a> {
    /// Parent tensors of the node, in the order the op recorded them.
    pub parents: &'a [Tensor],
    /// The node's forward value.
    pub output: &'a NdArray,
}

/// The gradient rule of one operation.
///
/// Implementations return one `Option<NdArray>` per parent — `None` for
/// parents that are non-differentiable inputs (index lists, dropout masks,
/// detached operators).
pub trait Backward {
    /// Map the output gradient to parent gradients.
    fn backward(&self, grad_out: &NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>>;
    /// Operation name for error messages.
    fn name(&self) -> &'static str;
}

struct Inner {
    id: u64,
    data: RefCell<NdArray>,
    grad: RefCell<Option<NdArray>>,
    requires_grad: bool,
    parents: Vec<Tensor>,
    backward_fn: Option<Box<dyn Backward>>,
}

/// A node in the autograd graph holding an [`NdArray`] value.
///
/// Cloning a `Tensor` is cheap (reference count bump); both clones refer to
/// the same node.
#[derive(Clone)]
pub struct Tensor {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tensor(id={}, shape={:?}, requires_grad={}, op={})",
            self.inner.id,
            self.inner.data.borrow().shape(),
            self.inner.requires_grad,
            self.inner.backward_fn.as_ref().map_or("leaf", |b| b.name()),
        )
    }
}

impl Tensor {
    /// A leaf that does not participate in differentiation.
    pub fn constant(data: NdArray) -> Self {
        Tensor {
            inner: Rc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad: false,
                parents: Vec::new(),
                backward_fn: None,
            }),
        }
    }

    /// A trainable leaf: gradients will accumulate here during backward.
    pub fn param(data: NdArray) -> Self {
        Tensor {
            inner: Rc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad: true,
                parents: Vec::new(),
                backward_fn: None,
            }),
        }
    }

    /// Record an op node. If no parent requires gradients — or gradient
    /// recording is disabled on this thread via [`no_grad`] — the graph
    /// edge is dropped and a plain constant is returned, so inference
    /// builds no graph at all.
    pub fn from_op(data: NdArray, parents: Vec<Tensor>, op: Box<dyn Backward>) -> Self {
        let requires_grad = is_grad_enabled() && parents.iter().any(|p| p.requires_grad());
        if !requires_grad {
            return Tensor::constant(data);
        }
        GRAPH_NODES.with(|n| n.set(n.get() + 1));
        Tensor {
            inner: Rc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad: true,
                parents,
                backward_fn: Some(op),
            }),
        }
    }

    /// Unique node id.
    #[inline]
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Whether gradients flow to or through this node.
    #[inline]
    pub fn requires_grad(&self) -> bool {
        self.inner.requires_grad
    }

    /// Borrow the forward value.
    pub fn data(&self) -> Ref<'_, NdArray> {
        self.inner.data.borrow()
    }

    /// Mutably borrow the value. Intended for optimisers updating leaf
    /// parameters in place; mutating an interior node invalidates the
    /// recorded graph.
    pub fn data_mut(&self) -> RefMut<'_, NdArray> {
        self.inner.data.borrow_mut()
    }

    /// Clone the forward value out of the node.
    pub fn array(&self) -> NdArray {
        self.inner.data.borrow().clone()
    }

    /// The shape of the value.
    pub fn shape(&self) -> Vec<usize> {
        self.inner.data.borrow().shape().to_vec()
    }

    /// The accumulated gradient, if any.
    pub fn grad(&self) -> Option<NdArray> {
        self.inner.grad.borrow().clone()
    }

    /// Clear the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// Overwrite the accumulated gradient (used by gradient clipping and
    /// other gradient-surgery utilities). The shape must match the value.
    pub fn replace_grad(&self, grad: NdArray) {
        assert_eq!(
            grad.shape(),
            self.inner.data.borrow().shape(),
            "replace_grad shape mismatch"
        );
        *self.inner.grad.borrow_mut() = Some(grad);
    }

    /// A constant view of this tensor's current value — gradients do not
    /// flow through the result.
    pub fn detach(&self) -> Tensor {
        Tensor::constant(self.array())
    }

    /// Scalar value of a single-element tensor.
    pub fn item(&self) -> f32 {
        self.inner.data.borrow().item()
    }

    fn accumulate_grad(&self, g: NdArray) {
        debug_assert_eq!(
            g.shape(),
            self.inner.data.borrow().shape(),
            "gradient shape mismatch on node {:?}",
            self
        );
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            Some(existing) => existing.add_assign_scaled(&g, 1.0),
            None => *slot = Some(g),
        }
    }

    /// Run reverse-mode differentiation from this node, seeding with a
    /// gradient of ones (the usual case is a scalar loss).
    ///
    /// Gradients accumulate into every reachable node with
    /// `requires_grad = true`; call [`Tensor::zero_grad`] on parameters
    /// between iterations.
    pub fn backward(&self) {
        let seed = NdArray::ones(self.inner.data.borrow().shape());
        self.backward_with(seed);
    }

    /// Run backward with an explicit seed gradient (must match this node's
    /// shape).
    pub fn backward_with(&self, seed: NdArray) {
        assert!(
            self.inner.requires_grad,
            "backward() on a tensor that does not require gradients"
        );
        assert_eq!(
            seed.shape(),
            self.inner.data.borrow().shape(),
            "backward seed shape mismatch"
        );

        // Post-order DFS: a node appears after all of its parents, so the
        // reversed order processes children before parents.
        let mut topo: Vec<Tensor> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        // (node, next_parent_index) explicit stack to avoid recursion depth
        // limits on deep (10-block) models.
        let mut stack: Vec<(Tensor, usize)> = vec![(self.clone(), 0)];
        visited.insert(self.id());
        while let Some((node, pi)) = stack.pop() {
            if pi < node.inner.parents.len() {
                stack.push((node.clone(), pi + 1));
                let parent = node.inner.parents[pi].clone();
                if parent.requires_grad() && visited.insert(parent.id()) {
                    stack.push((parent, 0));
                }
            } else {
                topo.push(node);
            }
        }

        self.accumulate_grad(seed);
        for node in topo.iter().rev() {
            let Some(op) = node.inner.backward_fn.as_ref() else { continue };
            let grad_out = match node.inner.grad.borrow().clone() {
                Some(g) => g,
                None => continue, // not reachable from the seed
            };
            let output = node.inner.data.borrow();
            let ctx = BackwardCtx { parents: &node.inner.parents, output: &output };
            let parent_grads = op.backward(&grad_out, &ctx);
            drop(output);
            assert_eq!(
                parent_grads.len(),
                node.inner.parents.len(),
                "op {} returned {} gradients for {} parents",
                op.name(),
                parent_grads.len(),
                node.inner.parents.len()
            );
            for (parent, g) in node.inner.parents.iter().zip(parent_grads) {
                if let Some(g) = g {
                    if parent.requires_grad() {
                        parent.accumulate_grad(g);
                    }
                }
            }
            // Free the intermediate gradient: only leaves keep theirs.
            if node.inner.backward_fn.is_some() {
                *node.inner.grad.borrow_mut() = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_does_not_build_graph() {
        let a = Tensor::constant(NdArray::ones(&[2]));
        let b = Tensor::constant(NdArray::ones(&[2]));
        let c = a.add(&b);
        assert!(!c.requires_grad());
    }

    #[test]
    fn param_square_gradient() {
        let x = Tensor::param(NdArray::from_vec(vec![3.0], &[1]));
        let y = x.mul(&x).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[6.0]);
    }

    #[test]
    fn gradient_accumulates_across_backwards() {
        let x = Tensor::param(NdArray::from_vec(vec![2.0], &[1]));
        for _ in 0..3 {
            let y = x.mul_scalar(5.0).sum_all();
            y.backward();
        }
        assert_eq!(x.grad().unwrap().data(), &[15.0]);
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn shared_subexpression_accumulates_once_per_use() {
        // y = x + x uses x twice: dy/dx = 2
        let x = Tensor::param(NdArray::from_vec(vec![1.0], &[1]));
        let y = x.add(&x).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0]);
    }

    #[test]
    fn detach_blocks_gradient() {
        let x = Tensor::param(NdArray::from_vec(vec![4.0], &[1]));
        let d = x.detach();
        let y = d.mul(&x).sum_all(); // y = const(4) * x
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[4.0]); // only the live path
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let x = Tensor::param(NdArray::from_vec(vec![1.0], &[1]));
        let mut y = x.clone();
        for _ in 0..5000 {
            y = y.add_scalar(1.0);
        }
        let loss = y.sum_all();
        loss.backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "does not require gradients")]
    fn backward_on_constant_panics() {
        let a = Tensor::constant(NdArray::ones(&[1]));
        a.backward();
    }

    #[test]
    fn no_grad_skips_graph_construction() {
        let x = Tensor::param(NdArray::from_vec(vec![1.0, 2.0], &[2]));
        // grad mode: ops on a param create graph nodes
        let before = graph_nodes_created();
        let y = x.mul(&x).sum_all();
        assert!(y.requires_grad());
        assert!(graph_nodes_created() > before);
        // no_grad: the same expression allocates zero graph nodes
        let guard = no_grad();
        let before = graph_nodes_created();
        let z = x.mul(&x).sum_all();
        assert!(!z.requires_grad());
        assert_eq!(graph_nodes_created(), before);
        // values are bitwise identical either way
        assert_eq!(y.array(), z.array());
        drop(guard);
        assert!(is_grad_enabled());
    }

    #[test]
    fn no_grad_guards_nest_and_restore() {
        assert!(is_grad_enabled());
        {
            let _g1 = no_grad();
            assert!(!is_grad_enabled());
            {
                let _g2 = no_grad();
                assert!(!is_grad_enabled());
            }
            assert!(!is_grad_enabled());
        }
        assert!(is_grad_enabled());
    }

    #[test]
    fn params_created_under_no_grad_still_require_grad() {
        // no_grad silences op recording, not leaf declarations
        let _g = no_grad();
        let p = Tensor::param(NdArray::ones(&[1]));
        assert!(p.requires_grad());
        // but an op on it is cut from the graph
        assert!(!p.add_scalar(1.0).requires_grad());
    }
}
