(** Activities of a stochastic activity network.

    An activity fires when its enabling predicate (the conjunction of its
    input-gate predicates in SAN terms) holds. {e Timed} activities fire
    after a random delay drawn from a marking-dependent distribution;
    {e instantaneous} activities fire in zero time and have priority over
    all timed activities. An activity completes through one of its
    {e cases}, chosen with marking-dependent weights; the case's effect —
    a declarative {!Effect.t} term (input + output gate functions in SAN
    terms) — transforms the marking.

    Semantics implemented by the executor, stated here because the model
    author must know them:

    {ul
    {- An enabled timed activity keeps its sampled completion time while it
       remains enabled, unless its reactivation {!policy} says otherwise.}
    {- [Resample] re-draws the completion time whenever a place in
       {!reads} changes while the activity stays enabled. For exponential
       distributions this yields exact competing-risk semantics under
       marking-dependent rates, and is the right default for models (like
       ITUA) whose rates depend on the marking.}
    {- An activity disabled by a marking change is aborted; if re-enabled
       later it samples a fresh delay (no age memory).}
    {- When several instantaneous activities are enabled, the executor
       picks one uniformly at random, matching the "equally likely to fire
       first" convention used throughout the ITUA paper.}} *)

type policy =
  | Keep  (** hold the sampled time while continuously enabled *)
  | Resample  (** re-draw whenever a dependency changes (see above) *)

(** Declarative timing distribution: a {!Dist.t} shape whose parameters
    are {!Effect.rexpr} rate expressions. {!dist_fn} compiles it to the
    [Marking.t -> Dist.t] function the executor samples from (folding
    all-constant parameters into a single preallocated distribution
    record). *)
type dist_ir =
  | DExp of Effect.rexpr  (** exponential, by rate *)
  | DDet of Effect.rexpr  (** deterministic delay *)
  | DUniform of Effect.rexpr * Effect.rexpr  (** lo, hi *)
  | DErlang of int * Effect.rexpr  (** k stages, per-stage rate *)
  | DGamma of Effect.rexpr * Effect.rexpr  (** shape, rate *)
  | DWeibull of Effect.rexpr * Effect.rexpr  (** shape, scale *)
  | DLognormal of Effect.rexpr * Effect.rexpr  (** mu, sigma *)
  | DNormal of Effect.rexpr * Effect.rexpr  (** mean, stddev *)

val dist_fn : dist_ir -> Marking.t -> Dist.t
(** Compile a declarative distribution to the function the executor
    samples from. Each parameter is evaluated with {!Effect.rexpr_fn}. *)

val dist_ir_reads : dist_ir -> int list
(** Sorted uids of places the distribution's parameters can read. *)

type timing =
  | Instantaneous
  | Timed of { dist : dist_ir; policy : policy }

(** One way an activity can complete. [weight] and [effect] state the
    case; [case_weight] and [prog] are compiled from them by
    {!make_case}, which is the only way to build one. *)
type case = private {
  weight : Effect.rexpr;
      (** Non-negative, marking-dependent; normalized over the activity's
          cases at firing time. *)
  effect : Effect.t;
  case_weight : Marking.t -> float;  (** [weight], compiled *)
  prog : Effect.prog;
      (** [effect], compiled; the executor's hot path runs this instead
          of interpreting [effect]. *)
}

(** An activity. [guard], [timing], [reads] and [cases] state it;
    [enabled] and [distribution] are compiled from them by {!make}, which
    is the only way to build one, so the two forms cannot disagree. *)
type t = private {
  id : int;
  name : string;
  timing : timing;
  guard : Effect.cond;  (** the enabling predicate *)
  reads : Place.any list;
      (** Every place whose marking can influence [guard], the firing
          distribution, or the case weights. Omissions make the executor
          miss wake-ups; the model checker ([Analysis.Check], diagnostic
          A013) detects them. *)
  cases : case array;
  enabled : Marking.t -> bool;  (** [guard], compiled *)
  distribution : Marking.t -> Dist.t;
      (** The [Timed] distribution, compiled with {!dist_fn}; raises
          [Invalid_argument] on an instantaneous activity. *)
}

val make_case : ?memo:Effect.memo -> ?weight:Effect.rexpr -> Effect.t -> case
(** Build a case, compiling the weight (default [RConst 1.0]) and the
    effect ({!Effect.compile}, sharing through [memo] when given). *)

val make :
  id:int ->
  name:string ->
  timing:timing ->
  guard:Effect.cond ->
  reads:Place.any list ->
  case array ->
  t
(** Build an activity, compiling its guard and distribution. Models build
    activities through [Model.Builder], which assigns [id]. *)

val is_instantaneous : t -> bool

val pp : Format.formatter -> t -> unit
