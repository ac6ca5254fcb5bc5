exception Non_markovian of string
exception Unsound_canon of string
exception Vanishing_loop = Walker.Vanishing_loop
exception Too_many_states = Walker.Too_many_states

type key = Walker.key

(* Transitions in compressed sparse rows: state [i]'s merged outgoing
   transitions are [col.(k), rate.(k)] for [k] in [row.(i) .. row.(i+1)-1],
   sorted by target. *)
type t = {
  model : San.Model.t;
  states : key array;
  initial_dist : (int * float) list;
  row : int array;
  col : int array;
  rate : float array;
  exit_rates : float array;
}

(* Growable array for building the CSR arrays (a float buffer stays a flat
   float array). *)
module Buf = struct
  type 'a t = { mutable a : 'a array; mutable len : int }

  let create x = { a = Array.make 1024 x; len = 0 }

  let push b x =
    if b.len = Array.length b.a then begin
      let a = Array.make (2 * b.len) x in
      Array.blit b.a 0 a 0 b.len;
      b.a <- a
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1

  let contents b = Array.sub b.a 0 b.len
end

let restore = Walker.restore

(* The analytical pipeline treats a weight bug as a modeling error, not a
   prunable successor like the checker does. *)
let normalized_weights a m =
  try Walker.normalized_weights a m
  with Walker.Bad_weights msg -> raise (Non_markovian msg)

let resolve_vanishing model m =
  try Walker.resolve_vanishing model m
  with Walker.Bad_weights msg -> raise (Non_markovian msg)

(* One-step expansion of a stable marking: [emit] receives every stable
   successor key (pre-canon) with its rate contribution. Factored out of
   the frontier loop so the canon audit below can expand a state without
   interning anything. *)
let expand model m emit =
  Array.iter
    (fun (a : San.Activity.t) ->
      match a.San.Activity.timing with
      | San.Activity.Instantaneous -> ()
      | San.Activity.Timed _ ->
          if a.enabled m then begin
            let dist = a.distribution m in
            let rate =
              match Dist.rate_of_exponential dist with
              | Some r -> r
              | None ->
                  raise
                    (Non_markovian
                       (Printf.sprintf
                          "activity %s has non-exponential distribution %s"
                          a.name
                          (Format.asprintf "%a" Dist.pp dist)))
            in
            if rate > 0.0 then begin
              let weights = normalized_weights a m in
              Array.iteri
                (fun case w ->
                  if w > 0.0 then
                    Walker.case_outcomes a case (San.Marking.copy m)
                    |> List.iter (fun (wo, m') ->
                           List.iter
                             (fun (k, p) -> emit k (rate *. w *. wo *. p))
                             (resolve_vanishing model m')))
                weights
            end
          end)
    (San.Model.activities model)

let explore ?(max_states = 200_000) ?(canon = fun k -> k) ?(audit = false)
    ?obs ?profile model =
  (match profile with
  | None -> ()
  | Some p -> Obs.Profile.enter p Obs.Profile.Ctmc_explore);
  let pool = Walker.Pool.create () in
  let frontier = Queue.create () in
  (* Lumpability audit: a sound canon maps a state and its representative
     to identical one-step behaviour over canonical classes. Verified on
     every distinct pre-canon key whose representative differs. *)
  let successors_by_class m =
    let tbl = Hashtbl.create 16 in
    expand model m (fun k r ->
        let c = canon k in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl c) in
        Hashtbl.replace tbl c (prev +. r));
    tbl
  in
  let audited = Walker.KeyTbl.create 256 in
  let audit_key k ck =
    if not (Walker.KeyTbl.mem audited k) then begin
      Walker.KeyTbl.add audited k ();
      if canon ck <> ck then
        raise
          (Unsound_canon
             "canon is not idempotent on a reachable state's representative");
      let s1 = successors_by_class (restore model k) in
      let s2 = successors_by_class (restore model ck) in
      (* Transitions staying inside the source's class are self-loops of
         the quotient on both sides; ignore them like the builder does. *)
      Hashtbl.remove s1 ck;
      Hashtbl.remove s2 ck;
      let check a b =
        Hashtbl.iter
          (fun c r ->
            let r' = Option.value ~default:0.0 (Hashtbl.find_opt b c) in
            let tol = 1e-9 *. Float.max 1.0 (Float.max (abs_float r) (abs_float r')) in
            if abs_float (r -. r') > tol then
              raise
                (Unsound_canon
                   (Printf.sprintf
                      "canon merges states with different one-step behaviour: rate to a canonical class differs (%.17g vs %.17g)"
                      r r')))
          a
      in
      check s1 s2;
      check s2 s1
    end
  in
  let intern k =
    let ck = canon k in
    if audit && ck <> k then audit_key k ck;
    let i, fresh = Walker.Pool.intern pool ~max_states ck in
    if fresh then Queue.add i frontier;
    i
  in
  let initial_dist =
    resolve_vanishing model (San.Model.initial_marking model)
    |> List.map (fun (k, p) -> (intern k, p))
  in
  (* The frontier pops ids in interning order, so rows are appended in
     state order. Parallel transitions to one target are summed in
     emission order; [slot.(j)] is [j]'s position in the current row's
     scratch, or -1. *)
  let row = Buf.create 0 and col = Buf.create 0 and rate = Buf.create 0.0 in
  let exit_rates = Buf.create 0.0 in
  let slot = ref (Array.make 1024 (-1)) in
  let targets = Buf.create 0 and sums = Buf.create 0.0 in
  Buf.push row 0;
  while not (Queue.is_empty frontier) do
    let i = Queue.pop frontier in
    let m = restore model (Walker.Pool.get pool i) in
    targets.len <- 0;
    sums.len <- 0;
    expand model m (fun k r ->
        let j = intern k in
        if j <> i then begin
          if j >= Array.length !slot then begin
            let a = Array.make (2 * (j + 1)) (-1) in
            Array.blit !slot 0 a 0 (Array.length !slot);
            slot := a
          end;
          let p = !slot.(j) in
          if p >= 0 then sums.a.(p) <- sums.a.(p) +. r
          else begin
            !slot.(j) <- targets.len;
            Buf.push targets j;
            Buf.push sums (0.0 +. r)
          end
        end);
    let sorted = Buf.contents targets in
    Array.sort Int.compare sorted;
    let out = ref 0.0 in
    for q = 0 to Array.length sorted - 1 do
      let j = sorted.(q) in
      let r = sums.a.(!slot.(j)) in
      !slot.(j) <- -1;
      Buf.push col j;
      Buf.push rate r;
      out := !out +. r
    done;
    Buf.push row col.len;
    Buf.push exit_rates !out
  done;
  let n = Walker.Pool.size pool in
  (match obs with
  | None -> ()
  | Some reg ->
      let module R = Obs.Registry in
      let s = R.scope reg "ctmc" in
      R.add (R.counter s "explore_states") n;
      R.add (R.counter s "explore_transitions") col.len;
      R.set
        (R.gauge s "intern_max_bucket")
        (float_of_int (Walker.Pool.stats pool).Hashtbl.max_bucket_length));
  (match profile with None -> () | Some p -> Obs.Profile.leave p);
  {
    model;
    states = Array.init n (Walker.Pool.get pool);
    initial_dist;
    row = Buf.contents row;
    col = Buf.contents col;
    rate = Buf.contents rate;
    exit_rates = Buf.contents exit_rates;
  }

let n_states c = Array.length c.states
let initial_dist c = c.initial_dist

let transitions c i =
  let rec collect k acc =
    if k < c.row.(i) then acc
    else collect (k - 1) ((c.col.(k), c.rate.(k)) :: acc)
  in
  collect (c.row.(i + 1) - 1) []

let fold_row c i f init =
  let acc = ref init in
  for k = c.row.(i) to c.row.(i + 1) - 1 do
    acc := f !acc c.col.(k) c.rate.(k)
  done;
  !acc

let exit_rate c i = c.exit_rates.(i)
let marking c i = restore c.model c.states.(i)

let eval c f = Array.init (n_states c) (fun i -> f (marking c i))

let max_exit_rate c = Array.fold_left Float.max 0.0 c.exit_rates

(* w = v P with P = I + Q/lambda. The float expressions and the order in
   which they accumulate into [w] are the solvers' numerical contract:
   changing either changes every transient and steady-state figure in its
   last bits. The row loop reads unchecked: [row] is non-decreasing from 0
   to [Array.length col], every [col] entry is a state id below [n], and
   [w] was checked to have length [n]. *)
let uniformized_step c lambda v w =
  let n = n_states c in
  if Array.length v <> n || Array.length w <> n || v == w then
    invalid_arg "Ctmc.Explore.uniformized_step: buffers";
  Array.fill w 0 n 0.0;
  for i = 0 to n - 1 do
    let vi = v.(i) in
    if vi <> 0.0 then begin
      let out = c.exit_rates.(i) in
      w.(i) <- w.(i) +. (vi *. (1.0 -. (out /. lambda)));
      for k = c.row.(i) to c.row.(i + 1) - 1 do
        let j = Array.unsafe_get c.col k in
        let r = Array.unsafe_get c.rate k in
        Array.unsafe_set w j (Array.unsafe_get w j +. (vi *. r /. lambda))
      done
    end
  done

let make_absorbing c is_absorbing =
  let n = n_states c in
  let keep = Array.init n (fun i -> not (is_absorbing i)) in
  let row = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row.(i + 1) <-
      (row.(i) + if keep.(i) then c.row.(i + 1) - c.row.(i) else 0)
  done;
  let col = Array.make row.(n) 0 and rate = Array.make row.(n) 0.0 in
  for i = 0 to n - 1 do
    if keep.(i) then begin
      let len = row.(i + 1) - row.(i) in
      Array.blit c.col c.row.(i) col row.(i) len;
      Array.blit c.rate c.row.(i) rate row.(i) len
    end
  done;
  {
    c with
    row;
    col;
    rate;
    exit_rates =
      Array.mapi (fun i r -> if keep.(i) then r else 0.0) c.exit_rates;
  }
