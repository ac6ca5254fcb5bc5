(* Read sets come from the IR, by role. [wake] is what the executor
   re-evaluates when a declared read changes: the guard, the timing
   distribution, and (for multi-case activities, the only ones whose
   weights it evaluates) the case weights. *)
type reads = {
  guard : int list;
  dist : int list;
  weight : int list;
  effect : int list;
  wake : int list;  (* guard @ dist @ weight, sorted, deduplicated *)
}

type facts = {
  space : Space.t;
  n_acts : int;
  n_uids : int;
  act_name : string array;  (* activity id -> name *)
  place_name : string array;  (* place uid -> name *)
  declared : Bytes.t array;  (* activity id -> declared-reads uid set *)
  reads : reads array;  (* activity id -> IR read sets *)
  writes : int list array;  (* activity id -> IR write set *)
  ever_enabled : bool array;
  negative : (int * int * string) list;  (* activity id, case, message *)
  ties : string list list;  (* distinct simultaneous-enabled name sets *)
}

let space f = f.space

let union lists = List.sort_uniq Int.compare (List.concat lists)

let over_cases (a : San.Activity.t) f =
  union (Array.to_list (Array.map f a.cases))

let ir_reads (a : San.Activity.t) =
  let guard = San.Effect.cond_reads a.guard in
  let dist =
    match a.timing with
    | San.Activity.Instantaneous -> []
    | San.Activity.Timed { dist; _ } -> San.Activity.dist_ir_reads dist
  in
  let weight =
    if Array.length a.cases > 1 then
      over_cases a (fun c -> San.Effect.rexpr_reads c.San.Activity.weight)
    else []
  in
  let effect =
    over_cases a (fun c -> San.Effect.static_reads c.San.Activity.effect)
  in
  { guard; dist; weight; effect; wake = union [ guard; dist; weight ] }

let ir_writes a =
  over_cases a (fun c -> San.Effect.static_writes c.San.Activity.effect)

let gather (space : Space.t) =
  let model = space.Space.model in
  let acts = San.Model.activities model in
  let n_acts = Array.length acts in
  let n_uids = San.Model.n_places model in
  let place_name = Array.make n_uids "" in
  Array.iter
    (fun p -> place_name.(San.Place.uid p) <- San.Place.name p)
    (San.Model.places model);
  Array.iter
    (fun p -> place_name.(San.Place.fuid p) <- San.Place.fname p)
    (San.Model.float_places model);
  let act_name = Array.map (fun (a : San.Activity.t) -> a.name) acts in
  let declared =
    Array.map
      (fun (a : San.Activity.t) ->
        let b = Bytes.make n_uids '\000' in
        List.iter (fun p -> Bytes.set b (San.Place.any_uid p) '\001') a.reads;
        b)
      acts
  in
  let ever_enabled = Array.make n_acts false in
  let negative = Hashtbl.create 8 in
  let ties = Hashtbl.create 8 in
  let ctx = space.Space.ctx in
  List.iter
    (fun m ->
      let inst = Ctmc.Walker.enabled_instantaneous model m in
      (match inst with
      | _ :: _ :: _ ->
          let names =
            List.map (fun (a : San.Activity.t) -> a.name) inst
            |> List.sort String.compare
          in
          Hashtbl.replace ties names ()
      | _ -> ());
      let stable = inst = [] in
      Array.iter
        (fun (a : San.Activity.t) ->
          (* Fire only where the executor could: timed activities at
             stable markings, instantaneous ones at vanishing markings
             (an enabled instantaneous activity implies the marking is
             vanishing). *)
          if a.enabled m then begin
            ever_enabled.(a.id) <- true;
            if stable || San.Activity.is_instantaneous a then begin
              let weights =
                if Array.length a.cases > 1 then
                  Array.map
                    (fun (c : San.Activity.case) -> c.case_weight m)
                    a.cases
                else [| 1.0 |]
              in
              Array.iteri
                (fun case (c : San.Activity.case) ->
                  if weights.(case) > 0.0 then
                    let mc = San.Marking.copy m in
                    match San.Effect.apply ctx c.effect mc with
                    | () -> ()
                    | exception Invalid_argument msg ->
                        if not (Hashtbl.mem negative (a.id, case)) then
                          Hashtbl.add negative (a.id, case) msg
                    | exception Failure _ ->
                        (* A wide Pick needs randomness the space's ctx
                           cannot supply during an exhaustive walk. *)
                        ())
                a.cases
            end
          end)
        acts)
    space.Space.markings;
  let negative =
    Hashtbl.fold (fun (id, case) msg acc -> (id, case, msg) :: acc) negative []
    |> List.sort (fun (a, b, _) (c, d, _) ->
           if a <> c then Int.compare a c else Int.compare b d)
  in
  let ties =
    Hashtbl.fold (fun names () acc -> names :: acc) ties []
    |> List.sort Stdlib.compare
  in
  {
    space;
    n_acts;
    n_uids;
    act_name;
    place_name;
    declared;
    reads = Array.map ir_reads acts;
    writes = Array.map ir_writes acts;
    ever_enabled;
    negative;
    ties;
  }

let is_declared f id uid = Bytes.get f.declared.(id) uid = '\001'

let negative_writes f =
  List.map
    (fun (id, case, msg) ->
      Diagnostic.v ~code:Diagnostic.negative_write ~severity:Diagnostic.Error
        ~source:(Diagnostic.Activity f.act_name.(id))
        (Printf.sprintf "case %d effect drives a marking negative (%s)" case
           msg))
    f.negative

(* {2 A013: exact declaration checks}

   The declared-reads contract is checked against the IR itself — exact,
   no sampling. Four findings:

   - a guard, distribution or case weight reading an undeclared place is
     an {e Error}: the executor re-evaluates these only when a declared
     read changes, so they can go stale;
   - effect reads beyond the declared list are one aggregated {e Info}
     per activity: effect reads cannot cause missed wake-ups (effects
     run at firing time), so per-place warnings would be noise;
   - a write to a place some activity reads (guard, distribution or
     weight) without declaring is an {e Error} on the writer: its
     firings cannot wake that reader. *)

let ir_decls f =
  let out = ref [] in
  let emit id severity msg =
    out :=
      Diagnostic.v ~code:Diagnostic.ir_mismatch ~severity
        ~source:(Diagnostic.Activity f.act_name.(id))
        msg
      :: !out
  in
  (* place uid -> ids of activities that read it to decide enabling or
     timing without declaring it, ascending *)
  let stale_readers = Array.make f.n_uids [] in
  for id = f.n_acts - 1 downto 0 do
    List.iter
      (fun uid ->
        if not (is_declared f id uid) then
          stale_readers.(uid) <- id :: stale_readers.(uid))
      f.reads.(id).wake
  done;
  for id = 0 to f.n_acts - 1 do
    let r = f.reads.(id) in
    let undeclared what uids why =
      List.iter
        (fun uid ->
          if not (is_declared f id uid) then
            emit id Diagnostic.Error
              (Printf.sprintf
                 "%s reads place %S, which is missing from the declared \
                  reads list (exact: %s)"
                 what f.place_name.(uid) why))
        uids
    in
    undeclared "guard" r.guard
      "marking changes there cannot wake the activity";
    undeclared "distribution" r.dist
      "marking changes there cannot resample the delay";
    undeclared "case weight" r.weight
      "the declared reads must cover every case weight";
    (match List.filter (fun uid -> not (is_declared f id uid)) r.effect with
    | [] -> ()
    | uids ->
        let n = List.length uids in
        let shown = List.filteri (fun k _ -> k < 12) uids in
        let names =
          String.concat ", " (List.map (fun uid -> f.place_name.(uid)) shown)
        in
        let names =
          if n > List.length shown then
            Printf.sprintf "%s, ... and %d more" names (n - List.length shown)
          else names
        in
        emit id Diagnostic.Info
          (Printf.sprintf
             "IR effects read %d place(s) beyond the declared reads list: %s \
              (exact; effect reads run at firing time and cannot miss \
              wake-ups)"
             n names));
    List.iter
      (fun uid ->
        match stale_readers.(uid) with
        | [] -> ()
        | readers ->
            emit id Diagnostic.Error
              (Printf.sprintf
                 "IR effect writes %S, which %s read(s) without declaring — \
                  this firing cannot wake them (exact)"
                 f.place_name.(uid)
                 (String.concat ", "
                    (List.map (fun r -> f.act_name.(r)) readers))))
      f.writes.(id)
  done;
  !out

let liveness f =
  let severity =
    match f.space.Space.mode with
    | Space.Exhaustive -> Diagnostic.Warning
    | Space.Sampled -> Diagnostic.Info
  in
  let coverage =
    match f.space.Space.mode with
    | Space.Exhaustive ->
        Printf.sprintf "any of the %d reachable markings"
          (Space.n_markings f.space)
    | Space.Sampled ->
        Printf.sprintf "any of the %d sampled markings"
          (Space.n_markings f.space)
  in
  let out = ref [] in
  for id = 0 to f.n_acts - 1 do
    if not f.ever_enabled.(id) then
      out :=
        Diagnostic.v ~code:Diagnostic.dead_activity ~severity
          ~source:(Diagnostic.Activity f.act_name.(id))
          (Printf.sprintf "never enabled in %s" coverage)
        :: !out
  done;
  let written = Bytes.make f.n_uids '\000' in
  let read = Bytes.make f.n_uids '\000' in
  let mark set uids = List.iter (fun uid -> Bytes.set set uid '\001') uids in
  for id = 0 to f.n_acts - 1 do
    mark written f.writes.(id);
    mark read f.reads.(id).wake;
    mark read f.reads.(id).effect
  done;
  for uid = 0 to f.n_uids - 1 do
    if Bytes.get written uid = '\000' then
      out :=
        Diagnostic.v ~code:Diagnostic.never_written_place ~severity
          ~source:(Diagnostic.Place f.place_name.(uid))
          (Printf.sprintf "never written by any effect in %s" coverage)
        :: !out;
    if Bytes.get read uid = '\000' then
      out :=
        Diagnostic.v ~code:Diagnostic.never_read_place ~severity
          ~source:(Diagnostic.Place f.place_name.(uid))
          (Printf.sprintf
             "never read by any activity function in %s (measures may still \
              read it)"
             coverage)
        :: !out
  done;
  !out

let instantaneous f =
  let loops =
    match f.space.Space.loop with
    | Some msg ->
        [
          Diagnostic.v ~code:Diagnostic.instantaneous_loop
            ~severity:Diagnostic.Error ~source:Diagnostic.Model msg;
        ]
    | None -> []
  in
  let ties =
    List.map
      (fun names ->
        Diagnostic.v ~code:Diagnostic.instantaneous_tie
          ~severity:Diagnostic.Warning ~source:Diagnostic.Model
          (Printf.sprintf
             "instantaneous activities enabled simultaneously (executor \
              tie-breaks uniformly): %s"
             (String.concat ", " names)))
      f.ties
  in
  loops @ ties

let composition f (root : Compose.info) =
  let model = f.space.Space.model in
  let touched id uid =
    is_declared f id uid
    || List.mem uid f.writes.(id)
    || List.mem uid f.reads.(id).wake
    || List.mem uid f.reads.(id).effect
  in
  let out = ref [] in
  let rec subtree_ids (n : Compose.info) =
    let own =
      List.filter_map
        (fun name ->
          match San.Model.find_activity model name with
          | a -> Some a.San.Activity.id
          | exception Not_found -> None)
        n.activities
    in
    own @ List.concat_map subtree_ids n.children
  in
  let all_ids = List.init f.n_acts (fun id -> id) in
  let rec walk (n : Compose.info) =
    if n.children <> [] then begin
      (* Subtrees that declared their activities outside the composition
         contexts record none; attribution is then impossible, so degrade
         to "unused by the whole model" rather than flagging everything. *)
      let ids =
        match subtree_ids n with [] -> all_ids | ids -> ids
      in
      List.iter
        (fun p ->
          let uid = San.Place.any_uid p in
          if not (List.exists (fun id -> touched id uid) ids) then
            out :=
              Diagnostic.v ~code:Diagnostic.unused_shared_place
                ~severity:Diagnostic.Warning
                ~source:
                  (Diagnostic.Composition
                     (if n.path = "" then n.label else n.path))
                (Printf.sprintf
                   "shared place %S is never read or written by any \
                    activity in this subtree"
                   (San.Place.any_name p))
              :: !out)
        n.places
    end;
    List.iter walk n.children
  in
  walk root;
  !out

let all ?composition:tree f =
  List.concat
    [
      negative_writes f;
      ir_decls f;
      liveness f;
      instantaneous f;
      (match tree with None -> [] | Some info -> composition f info);
    ]
  |> List.sort_uniq Diagnostic.compare
