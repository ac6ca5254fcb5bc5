(** Reward evaluation on a solved CTMC — the analytical counterparts of
    the simulator's {!Sim.Reward} estimators, used for cross-validation
    and for exact solution of small models.

    The transient measures take [?obs] and [?profile] and forward them to
    the {!Transient} solver they call: the solve is charged to the
    [Ctmc_solve] phase and its uniformization figures land in scope
    ["ctmc"]. *)

val instant :
  ?obs:Obs.Registry.t ->
  ?profile:Obs.Profile.t ->
  Explore.t ->
  at:float ->
  (San.Marking.t -> float) ->
  float
(** E[f(state at time [at])]. *)

val interval_average :
  ?obs:Obs.Registry.t ->
  ?profile:Obs.Profile.t ->
  Explore.t ->
  ?from_:float ->
  until:float ->
  (San.Marking.t -> float) ->
  float
(** (1/(until-from)) · E[∫ f dt] over the window — e.g. unavailability
    with an indicator [f]. *)

val ever :
  ?obs:Obs.Registry.t ->
  ?profile:Obs.Profile.t ->
  Explore.t ->
  until:float ->
  (San.Marking.t -> bool) ->
  float
(** P(the predicate holds at some instant in [\[0, until\]]), computed by
    making predicate states absorbing and taking the transient mass in
    them at [until] — exact unreliability. *)

val steady_average : Explore.t -> (San.Marking.t -> float) -> float
(** Long-run expectation of [f] under {!Steady.distribution}. *)
