"""Prediction module (Fig 2, module 4).

Loads the pre-trained models and the scaler coefficients at
initialization (§III-4), then serves per-update predictions: standardize
the incoming feature vector with the *training-time* scaler and run every
panel model on it.  The module never refits anything online — exactly the
paper's design, where training happens offline on replayed captures.

Production hardening on top of the paper's design: **per-model failure
isolation**.  A panel member that raises, returns the wrong number of
votes, or returns a vote other than 0/1 (a poisoned or corrupted model)
is quarantined at once, and the remaining members keep voting with an
adjusted quorum (majority over the healthy panel).  Only when *every*
member is quarantined does the module refuse to serve, raising
:class:`PredictionUnavailableError` so the caller can shed the block
instead of crashing the mechanism.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.ml.scaler import StandardScaler

__all__ = ["PredictionModule", "PredictionUnavailableError"]


class PredictionUnavailableError(RuntimeError):
    """Raised when every panel member is quarantined."""


#: Quarantine callback signature: ``(model_name, reason, n_active_left)``.
QuarantineHook = Callable[[str, str, int], None]

#: Reinstate callback signature: ``(model_name, n_active_now)``.
ReinstateHook = Callable[[str, int], None]


class PredictionModule:
    """Scaler + pre-trained model panel.

    Parameters
    ----------
    scaler : StandardScaler
        Fitted on the training capture.
    models : dict[str, classifier]
        Fitted panel, e.g. ``{"mlp": ..., "rf": ..., "gnb": ...}``
        (the testbed panel of §IV-C3).
    feature_names : sequence of str
        Schema order the feature vectors arrive in; kept for sanity
        checking against the scaler dimensionality.
    on_quarantine : callable(name, reason, n_active_left), optional
        Observer invoked when a member is quarantined (the mechanism
        wires this to its watchdog).
    on_reinstate : callable(name, n_active_now), optional
        Observer invoked when a quarantined member rejoins the quorum —
        the recovery-side twin of ``on_quarantine``, so the control
        plane sees the HEALTHY transition too.
    """

    def __init__(
        self,
        scaler: StandardScaler,
        models: Dict[str, object],
        feature_names: Sequence[str],
        on_quarantine: Optional[QuarantineHook] = None,
        on_reinstate: Optional[ReinstateHook] = None,
    ) -> None:
        if not models:
            raise ValueError("need at least one model")
        if scaler.n_features_ is None:
            raise ValueError("scaler must be fitted")
        if scaler.n_features_ != len(feature_names):
            raise ValueError(
                f"scaler has {scaler.n_features_} features, schema has "
                f"{len(feature_names)}"
            )
        self.scaler = scaler
        self.models = dict(models)
        self.feature_names = list(feature_names)
        self.on_quarantine = on_quarantine
        self.on_reinstate = on_reinstate
        self.predictions_served = 0
        self.model_failures: Dict[str, int] = {name: 0 for name in self.models}
        self.quarantined: Dict[str, str] = {}  # name -> reason
        #: Model-panel generation: 0 is the pretrained panel; each
        #: lifecycle hot swap bumps it.  ``panel_hash`` is the content
        #: hash of the installed panel blob ("" for the pretrained one),
        #: checked on checkpoint restore so a worker can never resume
        #: serving with the wrong generation's models.
        self.panel_epoch = 0
        self.panel_hash = ""

    @property
    def model_names(self) -> List[str]:
        return list(self.models.keys())

    @property
    def active_model_names(self) -> List[str]:
        """Panel members still voting (insertion order preserved)."""
        return [n for n in self.models if n not in self.quarantined]

    # ------------------------------------------------------------------
    # failure isolation
    # ------------------------------------------------------------------
    def _fail(self, name: str, reason: str) -> None:
        """Count one failed block against a member and quarantine it."""
        self.model_failures[name] += 1
        self.quarantine(name, reason)

    def quarantine(self, name: str, reason: str = "operator request") -> None:
        """Remove a member from the voting quorum (idempotent)."""
        if name not in self.models:
            raise KeyError(f"unknown model: {name!r}")
        if name in self.quarantined:
            return
        self.quarantined[name] = reason
        if self.on_quarantine is not None:
            self.on_quarantine(name, reason, len(self.active_model_names))

    def reinstate(self, name: str) -> None:
        """Return a quarantined member to the quorum (e.g. after a
        model reload); clears its failure count.  Unknown names raise
        ``KeyError``, symmetric with :meth:`quarantine` — silently
        accepting a typo here would leave an operator convinced a dead
        member was back in the quorum.  Reinstating a member that is
        not quarantined is an idempotent no-op (no hook fires)."""
        if name not in self.models:
            raise KeyError(f"unknown model: {name!r}")
        was_quarantined = self.quarantined.pop(name, None) is not None
        self.model_failures[name] = 0
        if was_quarantined and self.on_reinstate is not None:
            self.on_reinstate(name, len(self.active_model_names))

    # ------------------------------------------------------------------
    # model lifecycle (hot swap)
    # ------------------------------------------------------------------
    def swap_panel(
        self,
        scaler: StandardScaler,
        models: Dict[str, object],
        epoch: int,
        panel_hash: str,
        feature_names: Optional[Sequence[str]] = None,
    ) -> None:
        """Atomically install a retrained panel (lifecycle hot swap).

        Validates the replacement like the constructor does, then
        replaces scaler + models and **resets the failure-isolation
        state** — failure counts and quarantine reasons belong to the
        outgoing generation's models, and carrying them over would
        quarantine a fresh member for its predecessor's sins.  ``epoch``
        must strictly increase; ``panel_hash`` is the content hash of
        the panel blob the swap was broadcast as.
        """
        names = list(feature_names) if feature_names is not None \
            else self.feature_names
        if not models:
            raise ValueError("need at least one model")
        if scaler.n_features_ is None:
            raise ValueError("scaler must be fitted")
        if scaler.n_features_ != len(names):
            raise ValueError(
                f"scaler has {scaler.n_features_} features, schema has "
                f"{len(names)}"
            )
        if int(epoch) <= self.panel_epoch:
            raise ValueError(
                f"swap epoch must increase: {epoch} <= {self.panel_epoch}"
            )
        self.scaler = scaler
        self.models = dict(models)
        self.feature_names = names
        self.model_failures = {name: 0 for name in self.models}
        self.quarantined = {}
        self.panel_epoch = int(epoch)
        self.panel_hash = str(panel_hash)

    def load_panel(
        self, scaler: StandardScaler, models: Dict[str, object]
    ) -> None:
        """Replace the model objects *without* touching lifecycle state.

        Restore-path twin of :meth:`swap_panel`: a respawned worker's
        checkpoint carries ``panel_epoch``/``panel_hash``/quarantine
        state but not the (immutable) model objects, which the
        supervisor supplies from its panel archive.  The caller is
        responsible for verifying the archive blob's content hash
        against the restored ``panel_hash`` first.
        """
        if not models:
            raise ValueError("need at least one model")
        self.scaler = scaler
        self.models = dict(models)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Per-model 0/1 votes for a block of feature vectors (steps
        ⑤→⑥); shape ``(n_samples, n_active)``.

        Only the *active* panel votes.  A member that raises, returns
        other than one vote per row, or votes other than 0/1 is
        quarantined and its column dropped from this block's votes.
        """
        active = self.active_model_names
        if not active:
            raise PredictionUnavailableError(
                "all panel members quarantined: "
                + "; ".join(f"{n} ({r})" for n, r in self.quarantined.items())
            )
        Xs = self.scaler.transform(np.asarray(X, dtype=np.float64))
        n = Xs.shape[0]
        names: List[str] = []
        cols = []
        for name in active:
            try:
                col = np.asarray(self.models[name].predict(Xs))
                if col.shape != (n,):
                    raise ValueError(f"{col.shape} votes for {n} rows")
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                self._fail(name, f"{type(exc).__name__}: {exc}")
                continue
            names.append(name)
            cols.append(col)
        V = np.column_stack(cols) if cols else np.empty((n, 0))
        binary = (V == 0) | (V == 1)
        if not binary.all():
            ok = binary.all(axis=0)
            for j in np.flatnonzero(~ok):
                bad = V[~binary[:, j], j][0]
                self._fail(names[j], f"non-binary vote: {bad.item()!r}")
            V = V[:, ok]
        if V.shape[1] == 0:
            raise PredictionUnavailableError(
                "every active panel member failed the batch"
            )
        self.predictions_served += n
        return V.astype(np.int64, copy=False)

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """Serving counters + failure-isolation state (failure counts and
        quarantine reasons).  The models and scaler are *not* captured —
        they are immutable after training and travel with the worker
        spec, not the checkpoint."""
        return {
            "predictions_served": self.predictions_served,
            "model_failures": dict(self.model_failures),
            "quarantined": dict(self.quarantined),
            "panel_epoch": self.panel_epoch,
            "panel_hash": self.panel_hash,
        }

    def state_restore(self, state: dict) -> None:
        self.predictions_served = int(state["predictions_served"])
        self.model_failures = dict(state["model_failures"])
        self.quarantined = dict(state["quarantined"])
        self.panel_epoch = int(state.get("panel_epoch", 0))
        self.panel_hash = str(state.get("panel_hash", ""))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Counters for the mechanism's stats surface; shard workers
        report this dict so the coordinator can aggregate panel health
        across the fleet."""
        return {
            "predictions_served": self.predictions_served,
            "active_models": self.active_model_names,
            "quarantined_models": dict(self.quarantined),
            "model_failures": dict(self.model_failures),
            "panel_epoch": self.panel_epoch,
            "panel_hash": self.panel_hash,
        }
