(** SAN models and their builder.

    A model is an immutable collection of places and activities together
    with an initial marking. Models are built once through {!Builder} and
    can then be simulated ({!Sim.Executor} in the [sim] library) or
    converted to a CTMC ([ctmc] library) any number of times, including
    concurrently from several domains: nothing in a built model is
    mutated by execution. *)

type t

(** Imperative model construction. *)
module Builder : sig
  type model := t
  type t

  val create : string -> t
  (** [create name] starts an empty model. *)

  val int_place : t -> ?init:int -> string -> Place.t
  (** Declares an int place with initial marking [init] (default 0). Place
      names must be unique within the model; [Invalid_argument]
      otherwise. *)

  val float_place : t -> ?init:float -> string -> Place.fl

  (** {2 Activities}

      An activity is stated entirely as data: an {!Effect.cond} guard, a
      timing distribution as {!Activity.dist_ir}, case weights as
      {!Effect.rexpr} and effects as {!Effect.t} terms. The executor's
      closures are compiled from that data, and the whole activity is
      readable by structural analysis and serializable ([Serial],
      [itua_sim save]).

      The effects given to {!timed_exp}, {!timed_exp_cases} and
      {!instantaneous} compile through one {!Effect.memo} per builder: a
      large effect term built once and embedded in many activities
      compiles once, and its program is shared by all of them. *)

  val activity :
    t ->
    name:string ->
    timing:Activity.timing ->
    guard:Effect.cond ->
    reads:Place.any list ->
    Activity.case list ->
    unit
  (** Declares an activity. At least one case is required; activity names
      must be unique. *)

  val timed :
    t ->
    name:string ->
    ?policy:Activity.policy ->
    dist:Activity.dist_ir ->
    guard:Effect.cond ->
    reads:Place.any list ->
    Activity.case list ->
    unit
  (** Timed activity; [policy] defaults to {!Activity.Resample} (see
      {!Activity.policy} for why that is the safe default under
      marking-dependent rates). *)

  val timed_exp :
    t ->
    name:string ->
    ?policy:Activity.policy ->
    rate:Effect.rexpr ->
    guard:Effect.cond ->
    reads:Place.any list ->
    Effect.t ->
    unit
  (** Single-case exponential activity, the most common shape. *)

  val timed_exp_cases :
    t ->
    name:string ->
    ?policy:Activity.policy ->
    rate:Effect.rexpr ->
    guard:Effect.cond ->
    reads:Place.any list ->
    (float * Effect.t) list ->
    unit
  (** Exponential activity with constant-probability cases, e.g. the
      three-way attack-class split of [attack_host]; each weight is
      recorded as [Effect.RConst]. *)

  val instantaneous :
    t ->
    name:string ->
    guard:Effect.cond ->
    reads:Place.any list ->
    Effect.t ->
    unit
  (** Single-case instantaneous activity. *)

  val build : t -> model
  (** Freezes the builder. The builder must not be reused afterwards. *)
end

val name : t -> string
val places : t -> Place.t array
val float_places : t -> Place.fl array
val activities : t -> Activity.t array

val n_places : t -> int
(** Total number of places (both kinds). *)

val find_place : t -> string -> Place.t
(** Lookup by exact name; raises [Not_found]. *)

val find_place_opt : t -> string -> Place.t option
val find_float_place_opt : t -> string -> Place.fl option

val find_activity : t -> string -> Activity.t
(** Lookup by exact name; raises [Not_found]. *)

val initial_marking : t -> Marking.t
(** A fresh marking set to the model's initial state (two array copies
    of the stored template). *)

(** {2 Per-model tables}

    Built once by {!Builder.build} and shared by every execution of the
    model. The arrays returned below {e are} the model's own tables:
    treat them as read-only. *)

val dependents : t -> int -> int array
(** [dependents model uid] is the ids, ascending, of the activities that
    declared the place with uid [uid] in their [reads] (empty for an
    unknown uid). *)

val instantaneous_ids : t -> int array
(** Ids of the instantaneous activities, ascending. *)

val guard_dependents : t -> int -> int array
(** [guard_dependents model uid] is the ids, ascending, of the
    instantaneous activities whose guard reads the place with uid [uid]
    according to the IR ({!Effect.cond_reads}) — declared [reads] play no
    part. A guard is a function of exactly these places, so an
    instantaneous activity's enabling can only change when one of them
    does. *)

val all_exponential : t -> bool
(** True when every timed activity's distribution is exponential in every
    reachable marking the caller has checked — practically: evaluated on
    the initial marking. The CTMC generator re-checks per state. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: name, place count, activity count. *)
