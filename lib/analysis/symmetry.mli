(** Replicate-symmetry detection and canonical-ordering CTMC lumping.

    The copies of a [Compose.replicate] family are {e structurally}
    identical by construction. When they are also {e behaviorally}
    exchangeable — no place stores another copy's identity and every
    rate and weight treats copies alike — the CTMC is lumpable by
    the symmetric group acting on copies: two states that differ only
    by a permutation of copy sub-states have identical futures, so one
    canonical representative per orbit suffices. Sorting each family's
    per-copy sub-state vectors into lexicographic order picks that
    representative, shrinking a replicated submodel's generator from
    [k^n] toward [C(n + k - 1, n)] states while every transient and
    steady measure on symmetric reward functions is preserved exactly.

    {!detect} checks the {e static} half of the story: for each family
    it verifies that copies declare the same places (same relative
    names, kinds and initial values, in the same order) and the same
    activities. The {e behavioral} half — rates that do not
    depend on the copy index, no cross-copy identity coupling like the
    ITUA model's [on_host] host ids — is invisible to introspection:
    validate a detected group by comparing lumped against unlumped
    measures on a small configuration before trusting it at scale
    (the test suite and the bench gate do exactly that). *)

type group = {
  family : string;
      (** the family's dotted path, e.g. ["domain"] or
          ["app[1].replica"] *)
  copies : int;
  int_slots : int array array;
      (** per copy: the marking-array indices of the copy's int places,
          in subtree declaration order (aligned across copies) *)
  float_slots : int array array;
  depth : int;  (** nesting depth; deeper groups are canonicalized first *)
}

val copy_signature :
  San.Model.t -> Compose.info -> string list * string list
(** A copy's structural signature: relative place renderings (name,
    kind, initial marking, declaration order) and relative activity
    names. Two copies with equal signatures hold the same state shape,
    so their sub-state vectors are comparable slot by slot. Shared by
    {!detect} and the orbit pass ([Analysis.Orbit]). *)

val copy_slots : Compose.info -> int array * int array
(** The marking-array indices (int, float) of every place in the copy's
    subtree, in declaration order — aligned across copies of equal
    {!copy_signature}. *)

val detect : San.Model.t -> Compose.info -> group list
(** [detect model root] walks the composition tree and returns every
    Rep family (two or more copies) whose copies are structurally
    exchangeable: equal relative place names, kinds, initial markings
    and declaration order, and equal relative activity names. Families
    failing the test are silently omitted. Nested families are
    reported per enclosing copy, deepest first — the order {!canon}
    needs. *)

val canon :
  group list -> int array * float array -> int array * float array
(** [canon groups key] is the canonical representative of [key]'s
    orbit: for each group, deepest first, the per-copy sub-vectors are
    sorted lexicographically (ints, then floats). Pure — the input
    arrays are not mutated. Feed it to {!Ctmc.Explore.explore}'s
    [?canon] to build the lumped chain. *)

val describe : group list -> string
(** One line per group: family, copy count, places per copy. *)
