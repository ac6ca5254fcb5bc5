(** State-space generation: SAN → continuous-time Markov chain.

    Reproduces Möbius's analytical path: starting from the initial
    marking, instantaneous activities are eliminated on the fly
    ({e vanishing-marking elimination}: each vanishing marking is resolved
    into a probability distribution over the stable markings reached
    through chains of instantaneous firings), and every timed activity
    must be exponentially distributed in every explored marking.

    Limits: the reachable stable state space must be finite (bounded by
    [max_states]). An effect's [Pick] forks into its feasible branches
    with uniform weights instead of drawing from a random stream.

    {b Representation.} States are interned by {!Walker.Pool} (a full-key
    hash), numbered in first-seen breadth-first order. Transitions are
    stored as compressed sparse rows: three flat arrays [row] (length
    [n + 1]), [col] and [rate], with state [i]'s outgoing transitions at
    positions [row.(i) .. row.(i+1) - 1], sorted by target, parallel
    transitions to one target summed in the order exploration emitted
    them, and self-loops dropped. The rows are built directly by the
    frontier loop; no per-transition list or tuple is allocated. *)

exception Non_markovian of string
(** A timed activity had a non-exponential distribution in some reachable
    marking. *)

exception Vanishing_loop of string
(** A chain of instantaneous firings did not terminate. *)

exception Too_many_states of int
(** Exploration exceeded [max_states]. *)

exception Unsound_canon of string
(** The [~audit:true] cross-check caught the supplied [canon] merging
    states with different one-step behaviour (or failing idempotence):
    the quotient chain would not be a lumping of the full chain. *)

type t

val explore :
  ?max_states:int ->
  ?canon:(int array * float array -> int array * float array) ->
  ?audit:bool ->
  ?obs:Obs.Registry.t ->
  ?profile:Obs.Profile.t ->
  San.Model.t ->
  t
(** Builds the CTMC. Default [max_states] is 200_000.

    [obs] receives, in scope ["ctmc"], the explored state and (merged)
    transition counts ([explore_states], [explore_transitions]) and the
    gauge [intern_max_bucket], the longest bucket of the state-interning
    table — a few entries with a healthy hash, hundreds or thousands
    if the key hash collapses; [profile] attributes the exploration to the
    [Ctmc_explore] phase (the phase is left open on an exploration
    exception, which aborts the analysis anyway).

    [canon], when supplied, maps every stable state key to a canonical
    representative before interning — the hook for exact lumping: when
    [canon] picks one representative per orbit of a symmetry of the
    model (see [Analysis.Symmetry]), the resulting chain is the lumped
    quotient and every measure over symmetric reward functions is
    preserved. [canon] must be pure and idempotent on its image; the
    default is the identity.

    [audit] (default [false]) cross-checks strong lumpability on the
    fly: for every distinct pre-canon key whose representative differs,
    the one-step successor-rate distribution over canonical classes of
    the key and of its representative must agree within 1e-9 relative
    tolerance (and [canon] must be idempotent there). Violations raise
    {!Unsound_canon}. Expanding both sides costs roughly the unlumped
    exploration on top of the lumped one — intended for validation runs
    and CI gates, not the hot path. *)

val n_states : t -> int

val initial_dist : t -> (int * float) list
(** Distribution over states at t = 0 (the initial marking can resolve
    through random instantaneous choices into several stable states). *)

val transitions : t -> int -> (int * float) list
(** [transitions c i] lists [(j, rate)] with merged parallel transitions
    and no self-loops, sorted by [j]: a list view of row [i], allocated
    per call. Solvers use {!fold_row} or {!uniformized_step}. *)

val fold_row : t -> int -> ('a -> int -> float -> 'a) -> 'a -> 'a
(** [fold_row c i f init] folds [f acc j rate] over row [i] in target
    order, without allocating the row. *)

val exit_rate : t -> int -> float
(** Total outgoing rate of state [i]. *)

val marking : t -> int -> San.Marking.t
(** The stable marking of state [i], restored into a fresh marking on
    every call (the caller owns it). *)

val eval : t -> (San.Marking.t -> float) -> float array
(** [eval c f] applies a marking function to every state. *)

val max_exit_rate : t -> float

val uniformized_step : t -> float -> float array -> float array -> unit
(** [uniformized_step c lambda v w] overwrites [w] with [v P], one step of
    the chain uniformized at rate [lambda] (P = I + Q/[lambda], [lambda] at
    least {!max_exit_rate}). [v] and [w] are caller-owned buffers of length
    {!n_states}, and must be distinct arrays ([Invalid_argument]
    otherwise); solvers ping-pong two buffers instead of allocating a
    vector per step.

    {b Bit-identity contract.} [w] is zeroed, then for each source [i] in
    increasing order with [v.(i) <> 0.0] it accumulates
    [w.(i) +. (v.(i) *. (1.0 -. (exit_rate i /. lambda)))] and then, over
    row [i] in target order, [w.(j) +. (v.(i) *. rate /. lambda)]. Every
    transient and steady-state figure depends on this expression and
    order to the last bit; the tests hold the solvers to a list-based
    reference with [Float.equal]. *)

val make_absorbing : t -> (int -> bool) -> t
(** [make_absorbing c is_absorbing] is the chain with every outgoing
    transition of the selected states removed — the standard first-passage
    transformation (see {!Measure.ever}). The selected rows become empty
    and their exit rates 0; every other row is copied unchanged. *)
