"""Per-layer quantization policies: mapping layers to schemes.

A :class:`QuantizationPolicy` is an ordered list of :class:`PolicyRule`
entries that override the config's default weight/activation schemes for the
layers they match.  Rules match on any combination of

* ``pattern`` — an ``fnmatch`` glob over the dotted layer path
  (``"down_blocks.0.*"``, ``"*.attention.to_q"``),
* ``layer_type`` — the layer's class name (``"Conv2d"``, ``"Linear"``), and
* ``predicate`` — an arbitrary ``(path, layer) -> bool`` callable.

Resolution order is first-match-wins, independently for the weight side and
the activation side: the first matching rule that sets ``weights`` decides
the weight scheme, the first matching rule that sets ``activations`` decides
the activation scheme, and anything left undecided falls back to the
config's defaults.  This lets a policy say "first and last conv stay FP8"
without having to restate the default for every other layer.

Glob/type rules serialize to plain dicts (and therefore JSON); predicate
rules are code and deliberately do not.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .calibration import quantizable_layer_paths
from .schemes import SchemeLike, scheme_name


@dataclass
class PolicyRule:
    """One policy entry: match criteria plus scheme overrides.

    All specified criteria must hold for the rule to match; a rule with no
    criteria matches every layer (useful as an explicit catch-all).  Either
    override may be left ``None`` to leave that side to later rules or the
    config default.
    """

    pattern: Optional[str] = None
    layer_type: Optional[str] = None
    predicate: Optional[Callable[[str, object], bool]] = None
    weights: Optional[SchemeLike] = None
    activations: Optional[SchemeLike] = None
    name: str = ""

    def matches(self, path: str, layer: object = None) -> bool:
        if self.pattern is not None and not fnmatch.fnmatchcase(path, self.pattern):
            return False
        if self.layer_type is not None and (
                layer is None or type(layer).__name__ != self.layer_type):
            return False
        if self.predicate is not None and not self.predicate(path, layer):
            return False
        return True

    def to_dict(self) -> Dict:
        if self.predicate is not None:
            raise ValueError(
                f"policy rule {self.name or self.pattern!r} uses a predicate "
                "callable and cannot be serialized; express it as a glob "
                "pattern or layer_type rule instead")
        return {
            "pattern": self.pattern,
            "layer_type": self.layer_type,
            "weights": scheme_name(self.weights) if self.weights is not None else None,
            "activations": (scheme_name(self.activations)
                            if self.activations is not None else None),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PolicyRule":
        return cls(pattern=data.get("pattern"),
                   layer_type=data.get("layer_type"),
                   weights=data.get("weights"),
                   activations=data.get("activations"),
                   name=data.get("name", ""))


@dataclass(frozen=True)
class PolicyDecision:
    """Outcome of resolving one layer against a policy (None = default)."""

    weights: Optional[SchemeLike] = None
    activations: Optional[SchemeLike] = None
    weight_rule: Optional[str] = None
    activation_rule: Optional[str] = None


@dataclass
class QuantizationPolicy:
    """An ordered, first-match-wins set of per-layer scheme overrides."""

    rules: List[PolicyRule] = field(default_factory=list)

    def add(self, rule: PolicyRule) -> "QuantizationPolicy":
        self.rules.append(rule)
        return self

    def resolve(self, path: str, layer: object = None) -> PolicyDecision:
        """First matching rule per side wins; unmatched sides stay ``None``."""
        weights = activations = None
        weight_rule = activation_rule = None
        for index, rule in enumerate(self.rules):
            if (weights is None and rule.weights is not None) or (
                    activations is None and rule.activations is not None):
                if rule.matches(path, layer):
                    label = rule.name or f"rule[{index}]"
                    if weights is None and rule.weights is not None:
                        weights, weight_rule = rule.weights, label
                    if activations is None and rule.activations is not None:
                        activations, activation_rule = rule.activations, label
            if weights is not None and activations is not None:
                break
        return PolicyDecision(weights=weights, activations=activations,
                              weight_rule=weight_rule,
                              activation_rule=activation_rule)

    # ------------------------------------------------------------------
    def referenced_schemes(self) -> List[str]:
        """Names of every scheme any rule can select (for calibration checks)."""
        names = []
        for rule in self.rules:
            for side in (rule.weights, rule.activations):
                if side is not None:
                    name = scheme_name(side)
                    if name not in names:
                        names.append(name)
        return names

    def to_dict(self) -> Dict:
        return {"rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: Optional[Dict]) -> Optional["QuantizationPolicy"]:
        if data is None:
            return None
        return cls(rules=[PolicyRule.from_dict(r) for r in data.get("rules", [])])


def boundary_interior_policy(unet, boundary: SchemeLike,
                             interior: Optional[SchemeLike] = None,
                             boundary_activations: Optional[SchemeLike] = None
                             ) -> QuantizationPolicy:
    """Keep the first and last quantizable layers on a higher-precision scheme.

    This is the classic mixed-precision recipe (the paper's integer baselines
    do the same): the boundary layers touch the image/noise directly and are
    the most error-sensitive, so they stay at e.g. FP8 while the interior
    runs FP4.  ``interior`` may be omitted to fall back to the config's
    default scheme for non-boundary layers.

    The boundary is the layer consuming the model input and the layer
    producing the model output: when the U-Net exposes them as
    ``input_conv`` / ``output_conv`` (as this repo's models do) those exact
    layers are pinned; otherwise the first/last quantizable layer in
    traversal order is used.
    """
    paths = [path for path, _ in quantizable_layer_paths(unet)]
    if not paths:
        raise ValueError("model has no quantizable layers")
    first = "input_conv" if "input_conv" in paths else paths[0]
    last = "output_conv" if "output_conv" in paths else paths[-1]
    rules = [PolicyRule(pattern=first, weights=boundary,
                        activations=boundary_activations, name="first-layer"),
             PolicyRule(pattern=last, weights=boundary,
                        activations=boundary_activations, name="last-layer")]
    if interior is not None:
        rules.append(PolicyRule(weights=interior, name="interior"))
    return QuantizationPolicy(rules=rules)
