//! Architecture specifications.
//!
//! The paper pairs each dataset with a standard vision architecture
//! (LeNet-5, ResNet-18, ResNet-50, DenseNet-121) and extracts the
//! penultimate-layer ("pre-logit") activations as the latent representation
//! used for covariate-shift detection. This module keeps those *names* and
//! the embedding interface while mapping each to a compact network that
//! trains on CPU in milliseconds — the substitution is documented in
//! `DESIGN.md` §3.

/// Named architecture families mirroring the paper's model table (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchName {
    /// LeNet-5 stand-in (FEMNIST, Fashion-MNIST).
    LeNet5Lite,
    /// ResNet-18 stand-in (CIFAR-10-C).
    ResNet18Lite,
    /// ResNet-50 stand-in (Tiny-ImageNet-C).
    ResNet50Lite,
    /// DenseNet-121 stand-in (FMoW).
    DenseNet121Lite,
    /// Plain multi-layer perceptron (tests, examples).
    Mlp,
}

impl std::fmt::Display for ArchName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ArchName::LeNet5Lite => "lenet5-lite",
            ArchName::ResNet18Lite => "resnet18-lite",
            ArchName::ResNet50Lite => "resnet50-lite",
            ArchName::DenseNet121Lite => "densenet121-lite",
            ArchName::Mlp => "mlp",
        };
        f.write_str(s)
    }
}

/// Input volume description: channels × height × width.
///
/// Dense-only models use `(1, 1, dim)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputShape {
    /// Channel count.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl InputShape {
    /// Flat input-vector dimensionality (`c·h·w`).
    pub fn dim(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Shape for a flat feature vector of length `dim`.
    pub fn flat(dim: usize) -> Self {
        Self { c: 1, h: 1, w: dim }
    }
}

/// Declarative layer description used to build a [`crate::Sequential`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerSpec {
    /// Fully-connected layer with the given output width.
    Dense(usize),
    /// ReLU activation.
    Relu,
    /// Tanh activation.
    Tanh,
    /// Convolution with "same" zero padding.
    Conv {
        /// Output channel count.
        out_c: usize,
        /// Kernel side length (odd).
        k: usize,
    },
    /// 2×2 stride-2 max pooling.
    MaxPool,
}

/// A complete, buildable architecture description.
///
/// The penultimate layer of the built model (the input to the final dense
/// classifier) is the **embedding layer** whose activations feed MMD-based
/// shift detection; its width is [`ArchSpec::embed_dim`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArchSpec {
    /// Architecture family name.
    pub name: ArchName,
    /// Human-readable label (dataset pairing, notes).
    pub label: String,
    /// Input volume.
    pub input: InputShape,
    /// Number of output classes.
    pub classes: usize,
    /// Layer stack, excluding the final classifier Dense layer (which is
    /// appended automatically so every model ends in `Dense(classes)`).
    pub hidden: Vec<LayerSpec>,
}

impl ArchSpec {
    /// A plain MLP over flat features: `dim -> hidden... -> classes`,
    /// ReLU-activated.
    pub fn mlp(label: &str, dim: usize, hidden: &[usize], classes: usize) -> Self {
        let mut layers = Vec::new();
        for &h in hidden {
            layers.push(LayerSpec::Dense(h));
            layers.push(LayerSpec::Relu);
        }
        Self {
            name: ArchName::Mlp,
            label: label.to_string(),
            input: InputShape::flat(dim),
            classes,
            hidden: layers,
        }
    }

    /// LeNet-5-lite: conv(6) → pool → conv(12) → pool → dense(embed).
    ///
    /// # Panics
    ///
    /// Panics if the input height/width are not divisible by 4.
    pub fn lenet5_lite(input: InputShape, classes: usize, embed: usize) -> Self {
        assert!(
            input.h.is_multiple_of(4) && input.w.is_multiple_of(4),
            "lenet needs h,w divisible by 4"
        );
        Self {
            name: ArchName::LeNet5Lite,
            label: "lenet5-lite".to_string(),
            input,
            classes,
            hidden: vec![
                LayerSpec::Conv { out_c: 6, k: 3 },
                LayerSpec::Relu,
                LayerSpec::MaxPool,
                LayerSpec::Conv { out_c: 12, k: 3 },
                LayerSpec::Relu,
                LayerSpec::MaxPool,
                LayerSpec::Dense(embed),
                LayerSpec::Relu,
            ],
        }
    }

    /// ResNet-18-lite: a two-hidden-layer MLP head over flat features with a
    /// wider embedding, standing in for ResNet-18's 512-d pre-logit layer.
    pub fn resnet18_lite(input: InputShape, classes: usize, embed: usize) -> Self {
        Self {
            name: ArchName::ResNet18Lite,
            label: "resnet18-lite".to_string(),
            input,
            classes,
            hidden: vec![
                LayerSpec::Dense(2 * embed),
                LayerSpec::Relu,
                LayerSpec::Dense(embed),
                LayerSpec::Relu,
            ],
        }
    }

    /// ResNet-50-lite: three hidden layers, standing in for the 2048-d
    /// pre-logit layer of ResNet-50.
    pub fn resnet50_lite(input: InputShape, classes: usize, embed: usize) -> Self {
        Self {
            name: ArchName::ResNet50Lite,
            label: "resnet50-lite".to_string(),
            input,
            classes,
            hidden: vec![
                LayerSpec::Dense(2 * embed),
                LayerSpec::Relu,
                LayerSpec::Dense(2 * embed),
                LayerSpec::Relu,
                LayerSpec::Dense(embed),
                LayerSpec::Relu,
            ],
        }
    }

    /// DenseNet-121-lite: MLP with tanh bottleneck mirroring DenseNet's
    /// global-average-pool embedding.
    pub fn densenet121_lite(input: InputShape, classes: usize, embed: usize) -> Self {
        Self {
            name: ArchName::DenseNet121Lite,
            label: "densenet121-lite".to_string(),
            input,
            classes,
            hidden: vec![
                LayerSpec::Dense(2 * embed),
                LayerSpec::Relu,
                LayerSpec::Dense(embed),
                LayerSpec::Tanh,
            ],
        }
    }

    /// Width of the embedding (penultimate) layer: the feature dimension
    /// flowing into the final classifier.
    pub fn embed_dim(&self) -> usize {
        let mut dim = self.input.dim();
        let mut shape = self.input;
        for spec in &self.hidden {
            match spec {
                LayerSpec::Dense(n) => {
                    dim = *n;
                    shape = InputShape::flat(*n);
                }
                LayerSpec::Conv { out_c, .. } => {
                    shape = InputShape {
                        c: *out_c,
                        h: shape.h,
                        w: shape.w,
                    };
                    dim = shape.dim();
                }
                LayerSpec::MaxPool => {
                    shape = InputShape {
                        c: shape.c,
                        h: shape.h / 2,
                        w: shape.w / 2,
                    };
                    dim = shape.dim();
                }
                LayerSpec::Relu | LayerSpec::Tanh => {}
            }
        }
        dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_embed_dim_is_last_hidden() {
        let spec = ArchSpec::mlp("t", 10, &[32, 16], 4);
        assert_eq!(spec.embed_dim(), 16);
    }

    #[test]
    fn mlp_without_hidden_embeds_input() {
        let spec = ArchSpec::mlp("t", 10, &[], 4);
        assert_eq!(spec.embed_dim(), 10);
    }

    #[test]
    fn lenet_embed_dim() {
        let spec = ArchSpec::lenet5_lite(InputShape { c: 1, h: 8, w: 8 }, 10, 24);
        assert_eq!(spec.embed_dim(), 24);
    }

    #[test]
    fn input_shape_dim() {
        assert_eq!(InputShape { c: 3, h: 8, w: 8 }.dim(), 192);
        assert_eq!(InputShape::flat(64).dim(), 64);
    }

    #[test]
    fn arch_names_display() {
        assert_eq!(ArchName::ResNet50Lite.to_string(), "resnet50-lite");
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn lenet_rejects_odd_input() {
        let _ = ArchSpec::lenet5_lite(InputShape { c: 1, h: 7, w: 8 }, 10, 24);
    }
}
