(** Kademlia (Maymounkov & Mazières, IPTPS 2002) — the XOR-metric DHT.

    The fourth substrate family: distance between identifiers is their
    bitwise XOR interpreted as a number.  Each node keeps one {e k-bucket}
    per distance scale (shared-prefix length), holding up to [k] contacts
    ordered least-recently seen first; lookups proceed {e iteratively} — the
    querier itself contacts the [alpha] closest known nodes, learns closer
    ones from their buckets, and repeats until no progress — rather than
    forwarding through the overlay as Chord/Pastry/CAN do.

    A key is owned by the node whose identifier is XOR-closest to it. *)

type t

val create : ?seed:int64 -> ?k:int -> ?alpha:int -> unit -> t
(** An empty network.  [k] (default 8) is the bucket capacity, [alpha]
    (default 3) the lookup parallelism. *)

val create_network : ?seed:int64 -> ?k:int -> ?alpha:int -> node_count:int -> unit -> t
(** Bootstrap a network: every node joins through the first and performs
    the self-lookup that populates its buckets. *)

val join : t -> Hashing.Key.t
(** Add a node with a fresh identifier: it inserts its bootstrap contact,
    looks its own identifier up (populating buckets along the way), and
    becomes known to the nodes it contacted. *)

val join_with_key : t -> Hashing.Key.t -> unit
(** @raise Invalid_argument if the identifier is already present. *)

val leave : t -> Hashing.Key.t -> unit
(** Abrupt failure; stale contacts are evicted lazily when touched.
    @raise Not_found if no such live node. *)

val live_count : t -> int
val live_keys : t -> Hashing.Key.t list

val xor_distance : Hashing.Key.t -> Hashing.Key.t -> Hashing.Key.t
(** The metric itself (exposed for tests): bitwise XOR of the keys,
    {!Hashing.Key.logxor}.  Lookups and bucket placement never build it:
    they compare distances with {!Hashing.Key.compare_xor} and take
    bucket indexes from {!Hashing.Key.common_prefix_bits}. *)

val lookup : t -> ?from:Hashing.Key.t -> Hashing.Key.t -> Hashing.Key.t * int
(** Iterative lookup from [from] (default: first live node): returns the
    XOR-closest node found and the number of nodes contacted (the message
    cost).  @raise Not_found on an empty network. *)

val responsible_oracle : t -> Hashing.Key.t -> Hashing.Key.t
(** Ground truth: the live node XOR-closest to the key. *)

val refresh : t -> unit
(** One maintenance pass: every node re-looks-up its own identifier,
    repopulating buckets (used after churn). *)

val is_converged : t -> bool
(** Lookups from every node find the oracle owner for a sample of keys. *)

val resolver : t -> Resolver.t
(** Resolver view over live nodes (indexes in sorted-key order);
    [replicas] returns the r XOR-closest nodes, Kademlia's natural replica
    set, closest first.

    {b Snapshot.}  [responsible], [replicas] and [replicas_into] answer
    from the identifiers live when the resolver is built, read as a
    binary trie over their bits: they agree with {!responsible_oracle}
    and with a sort of that snapshot by XOR distance, but do not see
    later joins or leaves — build a new resolver after changing
    membership.  [route_hops] runs a real {!lookup} on the live network
    (and so updates its buckets).

    {b Cost.}  [responsible] descends the trie toward the key's bits:
    O(log n) levels for random identifiers, each a 20-byte prefix
    comparison plus a binary search.  [replicas_into] walks it near child
    first and stops after [r] leaves, O(r log n) levels.  Neither
    allocates (beyond growing a too-small buffer); [replicas] allocates
    only the buffer and the returned list. *)
