type t = {
  node_count : int;
  responsible : Hashing.Key.t -> int;
  route_hops : Hashing.Key.t -> int;
  replicas : Hashing.Key.t -> int -> int list;
  replicas_into : Hashing.Key.t -> int -> Stdx.Arena.Int_buf.t -> unit;
}

let responsible t key = t.responsible key
let route_hops t key = t.route_hops key
let node_count t = t.node_count
let replicas t key r = t.replicas key r

let[@hot] replicas_into t key r buf = t.replicas_into key r buf

let ring_replicas ~node_count ~primary r =
  if r < 1 then invalid_arg "Resolver.ring_replicas: need at least one replica";
  List.init (Stdlib.min r node_count) (fun i -> (primary + i) mod node_count)

let[@hot] ring_replicas_into ~node_count ~primary r buf =
  if r < 1 then
    invalid_arg "Resolver.ring_replicas_into: need at least one replica";
  Stdx.Arena.Int_buf.clear buf;
  for i = 0 to Stdlib.min r node_count - 1 do
    Stdx.Arena.Int_buf.push buf ((primary + i) mod node_count)
  done

let list_of_into replicas_into key r =
  let buf = Stdx.Arena.Int_buf.create () in
  replicas_into key r buf;
  Stdx.Arena.Int_buf.to_list buf
