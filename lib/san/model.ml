type t = {
  name : string;
  int_places : Place.t array;
  float_places : Place.fl array;
  initial_ints : int array;
  initial_floats : float array;
  activities : Activity.t array;
  by_place_name : (string, Place.any) Hashtbl.t;
  by_activity_name : (string, Activity.t) Hashtbl.t;
  dependents : int array array;  (* place uid -> activity ids *)
  inst_ids : int array;  (* ids of the instantaneous activities, ascending *)
  guard_dependents : int array array;
      (* place uid -> ids of the instantaneous activities whose IR guard
         reads it *)
}

module Builder = struct
  type _model = t

  type t = {
    bname : string;
    mutable ints : (Place.t * int) list;  (* reversed *)
    mutable floats : (Place.fl * float) list;
    mutable acts : Activity.t list;
    mutable n_ints : int;  (* lengths of the three lists *)
    mutable n_floats : int;
    mutable n_acts : int;
    names : (string, unit) Hashtbl.t;
    act_names : (string, unit) Hashtbl.t;
    mutable next_uid : int;
    mutable built : bool;
    memo : Effect.memo;  (* effects compiled through the entry points *)
  }

  let create bname =
    {
      bname;
      ints = [];
      floats = [];
      acts = [];
      n_ints = 0;
      n_floats = 0;
      n_acts = 0;
      names = Hashtbl.create 64;
      act_names = Hashtbl.create 64;
      next_uid = 0;
      built = false;
      memo = Effect.memo ();
    }

  let check_fresh b what tbl name =
    if b.built then invalid_arg "Model.Builder: builder already built";
    if Hashtbl.mem tbl name then
      invalid_arg (Printf.sprintf "Model.Builder: duplicate %s %S" what name);
    Hashtbl.add tbl name ()

  let int_place b ?(init = 0) name =
    check_fresh b "place" b.names name;
    if init < 0 then
      invalid_arg
        (Printf.sprintf "Model.Builder: place %S initial marking < 0" name);
    let p = Place.make_int ~name ~index:b.n_ints ~uid:b.next_uid in
    b.next_uid <- b.next_uid + 1;
    b.ints <- (p, init) :: b.ints;
    b.n_ints <- b.n_ints + 1;
    p

  let float_place b ?(init = 0.0) name =
    check_fresh b "place" b.names name;
    let p = Place.make_float ~name ~index:b.n_floats ~uid:b.next_uid in
    b.next_uid <- b.next_uid + 1;
    b.floats <- (p, init) :: b.floats;
    b.n_floats <- b.n_floats + 1;
    p

  let activity b ~name ~timing ~guard ~reads cases =
    check_fresh b "activity" b.act_names name;
    if cases = [] then
      invalid_arg
        (Printf.sprintf "Model.Builder: activity %S needs at least one case"
           name);
    let act =
      Activity.make ~id:b.n_acts ~name ~timing ~guard ~reads
        (Array.of_list cases)
    in
    b.acts <- act :: b.acts;
    b.n_acts <- b.n_acts + 1

  let timed b ~name ?(policy = Activity.Resample) ~dist ~guard ~reads cases =
    activity b ~name ~timing:(Activity.Timed { dist; policy }) ~guard ~reads
      cases

  let timed_exp b ~name ?policy ~rate ~guard ~reads effect =
    timed b ~name ?policy ~dist:(Activity.DExp rate) ~guard ~reads
      [ Activity.make_case ~memo:b.memo effect ]

  let timed_exp_cases b ~name ?policy ~rate ~guard ~reads cases =
    let cases =
      List.map
        (fun (w, effect) ->
          if w < 0.0 then
            invalid_arg
              (Printf.sprintf
                 "Model.Builder: activity %S has negative case probability"
                 name);
          Activity.make_case ~memo:b.memo ~weight:(Effect.RConst w) effect)
        cases
    in
    timed b ~name ?policy ~dist:(Activity.DExp rate) ~guard ~reads cases

  let instantaneous b ~name ~guard ~reads effect =
    activity b ~name ~timing:Activity.Instantaneous ~guard ~reads
      [ Activity.make_case ~memo:b.memo effect ]

  let build b =
    if b.built then invalid_arg "Model.Builder.build: already built";
    b.built <- true;
    let ints = Array.of_list (List.rev b.ints) in
    let floats = Array.of_list (List.rev b.floats) in
    let activities = Array.of_list (List.rev b.acts) in
    let by_place_name = Hashtbl.create (Array.length ints) in
    Array.iter
      (fun (p, _) -> Hashtbl.replace by_place_name (Place.name p) (Place.P p))
      ints;
    Array.iter
      (fun (p, _) -> Hashtbl.replace by_place_name (Place.fname p) (Place.F p))
      floats;
    let by_activity_name = Hashtbl.create (Array.length activities) in
    Array.iter
      (fun (a : Activity.t) -> Hashtbl.replace by_activity_name a.name a)
      activities;
    (* Both dependency tables are filled from the last activity to the
       first, so every list comes out in ascending id order; places with
       no reader share the empty array. *)
    let n_uids = b.next_uid in
    let deps = Array.make n_uids [] in
    let gdeps = Array.make n_uids [] in
    let inst = ref [] in
    for id = Array.length activities - 1 downto 0 do
      let a = activities.(id) in
      List.iter
        (fun pl ->
          let uid = Place.any_uid pl in
          deps.(uid) <- id :: deps.(uid))
        a.Activity.reads;
      if Activity.is_instantaneous a then begin
        inst := id :: !inst;
        List.iter
          (fun uid -> gdeps.(uid) <- id :: gdeps.(uid))
          (Effect.cond_reads a.Activity.guard)
      end
    done;
    {
      name = b.bname;
      int_places = Array.map fst ints;
      float_places = Array.map fst floats;
      initial_ints = Array.map snd ints;
      initial_floats = Array.map snd floats;
      activities;
      by_place_name;
      by_activity_name;
      dependents = Array.map Array.of_list deps;
      inst_ids = Array.of_list !inst;
      guard_dependents = Array.map Array.of_list gdeps;
    }
end

let name m = m.name
let places m = m.int_places
let float_places m = m.float_places
let activities m = m.activities
let n_places m = Array.length m.int_places + Array.length m.float_places

let find_place_opt m s =
  match Hashtbl.find_opt m.by_place_name s with
  | Some (Place.P p) -> Some p
  | Some (Place.F _) | None -> None

let find_float_place_opt m s =
  match Hashtbl.find_opt m.by_place_name s with
  | Some (Place.F p) -> Some p
  | Some (Place.P _) | None -> None

let find_place m s =
  match find_place_opt m s with Some p -> p | None -> raise Not_found

let find_activity m s =
  match Hashtbl.find_opt m.by_activity_name s with
  | Some a -> a
  | None -> raise Not_found

let initial_marking m = Marking.of_arrays m.initial_ints m.initial_floats

let table_row tbl uid =
  if uid < 0 || uid >= Array.length tbl then [||] else tbl.(uid)

let dependents m uid = table_row m.dependents uid
let instantaneous_ids m = m.inst_ids
let guard_dependents m uid = table_row m.guard_dependents uid

let all_exponential m =
  let mk = initial_marking m in
  Array.for_all
    (fun (a : Activity.t) ->
      match a.timing with
      | Activity.Instantaneous -> true
      | Activity.Timed _ -> Dist.is_exponential (a.distribution mk))
    m.activities

let pp_summary ppf m =
  Format.fprintf ppf
    "model %S: %d int places, %d float places, %d activities (%d inst.)"
    m.name
    (Array.length m.int_places)
    (Array.length m.float_places)
    (Array.length m.activities)
    (Array.length m.inst_ids)
