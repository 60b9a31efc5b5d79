//! Hosting the service the way `exq serve --event-loop --cache-mb N`
//! does, through the same public calls: outsource, persist, migrate to a
//! paged store, reopen at the pool budget, start the background
//! checkpointer and `serve_event` with the default `ServeConfig`.

use crate::schedule::Budget;
use exq_core::scheme::SchemeKind;
use exq_core::store::{checkpoint_interval, checkpoint_once, Checkpointer, PagedDb, StoreOptions};
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::transport::{ServeConfig, ServeHandle, TcpTransport, Transport};
use exq_core::{serve_event, Client, Server, TenantRegistry, DEFAULT_DB};
use exq_workload::hospital;
use exq_xml::Document;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Pool budget of the one-off migration, before the on-disk size is known.
const MIGRATE_BUDGET: usize = 4 << 20;

/// Where one set-up's time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Scheme, encryption and index build.
    pub outsource: Duration,
    /// Writing the sealed server state to its file.
    pub persist: Duration,
    /// Paged migration, reopening at the budget, serve start and the
    /// first answered ping.
    pub open: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.outsource + self.persist + self.open
    }
}

/// A running service plus the client-side handles the benchmark drives.
pub struct Hosted {
    pub client: Client,
    pub server: Arc<RwLock<Server>>,
    pub db: Arc<PagedDb>,
    pub link: TcpTransport,
    handle: ServeHandle,
    checkpointer: Checkpointer,
    pages: PathBuf,
    opts: StoreOptions,
}

/// Hosts `doc` anew in `dir`.
pub fn setup(
    doc: &Document,
    seed: u64,
    budget: Budget,
    dir: &Path,
) -> Result<(Hosted, SetupTimes), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t = Instant::now();
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(doc, &hospital::constraints(), SchemeKind::Opt, seed)
        .map_err(|e| format!("outsource: {e}"))?;
    let (client, server) = hosted.split();
    let outsource = t.elapsed();

    let t = Instant::now();
    let legacy = dir.join("db.exq");
    server.save(&legacy).map_err(|e| format!("persist: {e}"))?;
    drop(server);
    let persist = t.elapsed();

    let t = Instant::now();
    let migrate = StoreOptions {
        cache_bytes: MIGRATE_BUDGET,
        ..StoreOptions::default()
    };
    let (server, db, _) = PagedDb::open_or_migrate(&legacy, DEFAULT_DB, migrate)
        .map_err(|e| format!("migrate: {e}"))?;
    let disk = db.footprint().disk_bytes as usize;
    drop(server);
    drop(db);
    let opts = StoreOptions {
        cache_bytes: match budget {
            Budget::Quarter => disk / 4,
            Budget::Full => disk.next_power_of_two(),
        },
        ..StoreOptions::default()
    };
    let pages = PagedDb::pages_dir(&legacy);
    let hosted = serve(client, &pages, opts)?;
    let open = t.elapsed();
    Ok((
        hosted,
        SetupTimes {
            outsource,
            persist,
            open,
        },
    ))
}

/// Opens the paged store at `pages` and serves it on a loopback port.
fn serve(client: Client, pages: &Path, opts: StoreOptions) -> Result<Hosted, String> {
    exq_core::flight::install_panic_hook();
    let (server, db, _) =
        PagedDb::open(pages, DEFAULT_DB, opts).map_err(|e| format!("open: {e}"))?;
    let server = Arc::new(RwLock::new(server));
    let registry = Arc::new(
        TenantRegistry::single(DEFAULT_DB, Arc::clone(&server))
            .map_err(|e| format!("registry: {e}"))?,
    );
    let checkpointer = Checkpointer::spawn_tenants(Arc::clone(&registry), checkpoint_interval());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let handle = serve_event(listener, registry, ServeConfig::default())
        .map_err(|e| format!("serve: {e}"))?;
    let mut link =
        TcpTransport::connect_default(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    link.ping().map_err(|e| format!("first ping: {e}"))?;
    Ok(Hosted {
        client,
        server,
        db,
        link,
        handle,
        checkpointer,
        pages: pages.to_owned(),
        opts,
    })
}

impl Hosted {
    /// The set-up directory holding this service's files.
    pub fn dir(&self) -> &Path {
        self.pages.parent().unwrap_or(&self.pages)
    }

    /// The server's response- and range-cache counters.
    pub fn cache_stats(&self) -> exq_core::cache::CacheStatsSnapshot {
        self.handle.cache_stats()
    }

    /// Stops serving and the checkpointer, then closes the store. Returns
    /// what a later reopen needs.
    pub fn stop(self) -> Stopped {
        let Hosted {
            client,
            server,
            db,
            link,
            handle,
            checkpointer,
            pages,
            opts,
        } = self;
        drop(link);
        handle.shutdown();
        checkpointer.stop();
        drop(server);
        drop(db);
        Stopped {
            client,
            pages,
            opts,
        }
    }
}

/// A stopped service: its client state and store location.
pub struct Stopped {
    pub client: Client,
    pages: PathBuf,
    opts: StoreOptions,
}

impl Stopped {
    /// Reopens the store directory, which replays the WAL. Returns the
    /// recovered server (not served), its store and the reopen time.
    pub fn reopen(&self) -> Result<(RwLock<Server>, Arc<PagedDb>, Duration), String> {
        let t = Instant::now();
        let (server, db, _) = PagedDb::open(&self.pages, DEFAULT_DB, self.opts)
            .map_err(|e| format!("reopen: {e}"))?;
        Ok((RwLock::new(server), db, t.elapsed()))
    }
}

/// Folds the WAL of a reopened server and returns the page file plus WAL
/// bytes afterwards.
pub fn final_checkpoint(server: &RwLock<Server>, db: &PagedDb) -> Result<u64, String> {
    checkpoint_once(server).map_err(|e| format!("final checkpoint: {e}"))?;
    Ok(db.footprint().disk_bytes)
}
