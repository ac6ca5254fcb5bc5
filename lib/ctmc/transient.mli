(** Transient solution of a CTMC by uniformization (Jensen's method).

    The chain is uniformized at rate Λ ≥ max exit rate into a DTMC
    P = I + Q/Λ, and π(t) = Σ_k pois(Λt, k) · π₀Pᵏ with the Poisson
    weights computed in log space (stable for large Λt) and truncated at a
    configurable mass tolerance.

    Each DTMC step is {!Explore.uniformized_step}. A solve allocates its
    result vector and two step buffers once and swaps the buffers after
    every step, so memory per solve is three vectors of {!Explore.n_states}
    floats however many steps Λt requires; nothing is allocated per step.

    Both solvers optionally report telemetry: [obs] receives the
    uniformization rate and the truncated Poisson support size (the
    number of DTMC steps taken) in scope ["ctmc"], and [profile]
    attributes the whole solve to the [Ctmc_solve] phase. *)

val probabilities :
  ?epsilon:float ->
  ?obs:Obs.Registry.t ->
  ?profile:Obs.Profile.t ->
  Explore.t ->
  t:float ->
  float array
(** [probabilities c ~t] is the state-probability vector at time [t].
    [epsilon] (default 1e-12) bounds the truncated Poisson mass. *)

val accumulated :
  ?epsilon:float ->
  ?obs:Obs.Registry.t ->
  ?profile:Obs.Profile.t ->
  Explore.t ->
  t:float ->
  float array
(** [accumulated c ~t] is the expected total time spent in each state over
    [\[0, t\]] (entries sum to [t]). *)
